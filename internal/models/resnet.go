package models

import (
	"repro/internal/autograd"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// residualBlock is a ResNet v1.5 basic block: conv-BN-ReLU-conv-BN, with
// the skip added after the second BatchNorm ("addition after batch
// normalization") and downsampling performed by the stride of the 3×3
// convolution rather than a 1×1 in the main path — the v1.5 details the
// paper fixes to make system comparisons meaningful (§3.1.1).
type residualBlock struct {
	conv1, conv2 *nn.Conv2d
	bn1, bn2     *nn.BatchNorm2d
	// down projects the skip connection when shape changes; nil for
	// identity skips (the first residual block of each network has no
	// 1×1 in its skip, per the v1.5 definition).
	down   *nn.Conv2d
	downBN *nn.BatchNorm2d
}

func newResidualBlock(name string, inC, outC, stride int, rng *tensor.RNG) *residualBlock {
	b := &residualBlock{
		conv1: nn.NewConv2d(name+".conv1", inC, outC, 3, stride, 1, false, rng),
		bn1:   nn.NewBatchNorm2d(name+".bn1", outC),
		conv2: nn.NewConv2d(name+".conv2", outC, outC, 3, 1, 1, false, rng),
		bn2:   nn.NewBatchNorm2d(name+".bn2", outC),
	}
	if stride != 1 || inC != outC {
		b.down = nn.NewConv2d(name+".down", inC, outC, 1, stride, 0, false, rng)
		b.downBN = nn.NewBatchNorm2d(name+".downbn", outC)
	}
	return b
}

func (b *residualBlock) forward(ctx *nn.Ctx, x *autograd.Var) *autograd.Var {
	h := autograd.ReLU(b.bn1.Forward(ctx, b.conv1.Forward(ctx, x)))
	h = b.bn2.Forward(ctx, b.conv2.Forward(ctx, h))
	skip := x
	if b.down != nil {
		skip = b.downBN.Forward(ctx, b.down.Forward(ctx, skip))
	}
	return autograd.ReLU(autograd.Add(h, skip))
}

func (b *residualBlock) Params() []*autograd.Param {
	ps := nn.CollectParams(b.conv1, b.bn1, b.conv2, b.bn2)
	if b.down != nil {
		ps = append(ps, nn.CollectParams(b.down, b.downBN)...)
	}
	return ps
}

// ResNet is the scaled-down ResNet-v1.5 classifier: a 3×3 stem followed by
// two stages of basic blocks and a linear classifier head.
type ResNet struct {
	stem   *nn.Conv2d
	stemBN *nn.BatchNorm2d
	blocks []*residualBlock
	fc     *nn.Linear
}

// NewResNet builds the classifier for inC-channel images and the given
// class count. width is the stem channel count (stage 2 doubles it).
func NewResNet(inC, classes, width int, rng *tensor.RNG) *ResNet {
	r := &ResNet{
		stem:   nn.NewConv2d("stem", inC, width, 3, 1, 1, false, rng),
		stemBN: nn.NewBatchNorm2d("stembn", width),
	}
	// Stage 1: identity blocks at stem width (first block: no 1×1 skip).
	r.blocks = append(r.blocks, newResidualBlock("s1b1", width, width, 1, rng))
	// Stage 2: downsampling block then an identity block at 2× width.
	r.blocks = append(r.blocks, newResidualBlock("s2b1", width, 2*width, 2, rng))
	r.blocks = append(r.blocks, newResidualBlock("s2b2", 2*width, 2*width, 1, rng))
	r.fc = nn.NewLinearXavier("fc", 2*width, classes, true, rng)
	return r
}

// Forward produces class logits [N, classes] for x [N,C,H,W].
func (r *ResNet) Forward(ctx *nn.Ctx, x *autograd.Var) *autograd.Var {
	h := autograd.ReLU(r.stemBN.Forward(ctx, r.stem.Forward(ctx, x)))
	for _, b := range r.blocks {
		h = b.forward(ctx, h)
	}
	return r.fc.Forward(ctx, autograd.GlobalAvgPool2D(h))
}

// Params implements nn.Module.
func (r *ResNet) Params() []*autograd.Param {
	ps := nn.CollectParams(r.stem, r.stemBN)
	for _, b := range r.blocks {
		ps = append(ps, b.Params()...)
	}
	return append(ps, r.fc.Params()...)
}

// ImageHParams are the tunable hyperparameters of the image-classification
// benchmark. MLPerf rules allow adjusting the batch size (and coupling the
// learning rate to it via the linear scaling rule) but fix the topology.
type ImageHParams struct {
	Batch       int
	BaseLR      float64 // learning rate at reference batch RefBatch
	RefBatch    int
	Momentum    float64
	WeightDecay float64
	Width       int
	// UseLARS selects the LARS optimizer (admitted in v0.6 for large
	// batches); otherwise SGD with momentum is used.
	UseLARS bool
	// MomentumStyle picks between the §2.2.4 formulations.
	MomentumStyle opt.MomentumStyle
	// WarmupEpochs ramps the learning rate linearly (large-batch rule).
	WarmupEpochs int
	// DecayEpoch steps the learning rate down by DecayFactor (the
	// reference ResNet schedule; 0 disables).
	DecayEpoch  int
	DecayFactor float64
	// Precision quantizes weights/gradients each step (Figure 1 study).
	Precision precision.Policy
	// Numerics selects the training compute regime (§2.2.3); zero value
	// is the float64 reference. Orthogonal to Precision: Precision
	// simulates weight storage formats post-hoc, Numerics changes what
	// the compute itself runs in. Evaluation always runs in float64, and
	// convolutions stay float64 in every regime (the AMP-style selective
	// op list: only the MatMul-class ops reduce).
	Numerics precision.Numerics
	// Augment enables the random flip/crop/jitter pipeline.
	Augment bool
}

// DefaultImageHParams is the reference configuration.
func DefaultImageHParams() ImageHParams {
	return ImageHParams{
		Batch: 32, BaseLR: 0.08, RefBatch: 32, Momentum: 0.9,
		WeightDecay: 1e-4, Width: 6, WarmupEpochs: 0,
		DecayEpoch: 8, DecayFactor: 0.2,
		Precision: precision.FullPrecision(), Augment: true,
	}
}

// ImageClassification is the ResNet workload over the synthetic ImageNet
// stand-in.
type ImageClassification struct {
	HP    ImageHParams
	DS    *datasets.ImageDataset
	Net   *ResNet
	Opt   opt.Optimizer
	Sched opt.Schedule

	params  []*autograd.Param
	loader  *data.Loader
	augment *datasets.Augment
	rng     *tensor.RNG
	epoch   int
	steps   int

	// Steady-state reuse: one persistent tape plus batch/augmentation
	// buffers, so warm training steps allocate nothing.
	tape    *autograd.Tape
	ctx     nn.Ctx
	mbAug   *datasets.Augment
	bx      *tensor.Tensor
	blabels []int

	mp *precision.MP // mixed-precision trainer; nil in non-mixed regimes
}

// imageOptimizer builds the benchmark optimizer for a parameter list.
// Factored out so staged (pipeline-parallel) training can give each stage
// an optimizer with hyperparameters identical to the serial one — the
// optimizers are elementwise, so per-stage instances over disjoint
// parameter shards update exactly as one instance over all parameters.
func imageOptimizer(hp ImageHParams, params []*autograd.Param) opt.Optimizer {
	lr := opt.LinearScaled(hp.BaseLR, hp.Batch, hp.RefBatch)
	if hp.UseLARS {
		return opt.NewLARS(params, lr, hp.Momentum, hp.WeightDecay, 0.02)
	}
	return opt.NewSGD(params, lr, hp.Momentum, hp.WeightDecay, hp.MomentumStyle)
}

// NewImageClassification builds the workload from a dataset, hyperparams,
// and a run seed (weight init, shuffling, and augmentation all derive from
// it — the §2.2.3 stochasticity sources).
func NewImageClassification(ds *datasets.ImageDataset, hp ImageHParams, seed uint64) *ImageClassification {
	rng := tensor.NewRNG(seed)
	net := NewResNet(ds.Cfg.Channels, ds.Cfg.Classes, hp.Width, rng.Split(1))
	params := net.Params()
	lr := opt.LinearScaled(hp.BaseLR, hp.Batch, hp.RefBatch)
	o := imageOptimizer(hp, params)
	w := &ImageClassification{
		HP: hp, DS: ds, Net: net, Opt: o,
		params: params,
		loader: data.NewLoader(ds.Cfg.TrainN, hp.Batch, rng.Split(2)),
		rng:    rng.Split(3),
		tape:   autograd.NewTape(),
		mp:     hp.Numerics.NewTrainer(params),
	}
	w.tape.SetDType(hp.Numerics.Compute)
	if hp.Augment {
		w.augment = &datasets.Augment{Flip: true, CropPad: 1, Jitter: 0.1, RNG: rng.Split(4)}
	}
	stepsPerEpoch := w.loader.StepsPerEpoch()
	var inner opt.Schedule = opt.Constant(lr)
	if hp.DecayEpoch > 0 && hp.DecayFactor > 0 {
		inner = opt.Step{Base: lr, Boundaries: []int{hp.DecayEpoch * stepsPerEpoch}, Factor: hp.DecayFactor}
	}
	w.Sched = opt.Warmup{Inner: inner, WarmupSteps: hp.WarmupEpochs * stepsPerEpoch}
	// Initial weights are stored in the simulated representation too.
	hp.Precision.ApplyToWeights(params)
	return w
}

// Name implements Workload.
func (w *ImageClassification) Name() string { return "image_classification" }

// Epoch implements Workload.
func (w *ImageClassification) Epoch() int { return w.epoch }

// Steps implements StepCounter.
func (w *ImageClassification) Steps() int { return w.steps }

// TrainEpoch implements Workload.
func (w *ImageClassification) TrainEpoch() float64 {
	totalLoss, n := 0.0, 0
	for i := 0; i < w.loader.StepsPerEpoch(); i++ {
		idx, _ := w.loader.Next()
		var x *tensor.Tensor
		var labels []int
		w.bx, w.blabels = w.DS.BatchInto(w.bx, w.blabels, true, idx, w.augment)
		x, labels = w.bx, w.blabels
		opt.ApplySchedule(w.Opt, w.Sched, w.steps)
		loss := trainStep(w.tape, w.params, w.Opt, w.mp, func(tape *autograd.Tape) *autograd.Var {
			ctx := nn.NewCtx(tape, true, w.rng)
			logits := w.Net.Forward(ctx, tape.ConstOf(x))
			return autograd.SoftmaxCrossEntropy(logits, labels)
		}, func() {
			w.HP.Precision.ApplyToGrads(w.params)
		})
		// Weights are stored in the simulated representation: quantize
		// after every update (Figure 1's "weight representation" sweep).
		w.HP.Precision.ApplyToWeights(w.params)
		totalLoss += loss
		n++
		w.steps++
	}
	w.epoch++
	return totalLoss / float64(n)
}

// Evaluate implements Workload: Top-1 accuracy on the validation split.
func (w *ImageClassification) Evaluate() float64 {
	batch := 64
	var preds, labels []int
	for lo := 0; lo < w.DS.Cfg.ValN; lo += batch {
		hi := lo + batch
		if hi > w.DS.Cfg.ValN {
			hi = w.DS.Cfg.ValN
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, lb := w.DS.Batch(false, idx, nil)
		tape := autograd.NewTape()
		ctx := nn.NewCtx(tape, false, w.rng)
		logits := w.Net.Forward(ctx, autograd.Const(x))
		preds = append(preds, logits.Value.ArgMaxRows()...)
		labels = append(labels, lb...)
	}
	return metrics.Top1Accuracy(preds, labels)
}

// ValError returns 1 - accuracy, the y-axis of Figure 1.
func (w *ImageClassification) ValError() float64 { return 1 - w.Evaluate() }
