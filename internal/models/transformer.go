package models

import (
	"repro/internal/autograd"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// transformerBlock is one encoder or decoder block: self-attention,
// optional cross-attention (decoder only), and a position-wise feed-forward
// network, each wrapped in residual + LayerNorm (post-norm, as in Vaswani
// et al.).
type transformerBlock struct {
	selfAttn      *nn.MultiHeadAttention
	crossAttn     *nn.MultiHeadAttention // nil in encoder blocks
	ff1, ff2      *nn.Linear
	ln1, ln2, ln3 *nn.LayerNorm
}

func newTransformerBlock(name string, d, heads, ff int, decoder bool, rng *tensor.RNG) *transformerBlock {
	b := &transformerBlock{
		selfAttn: nn.NewMultiHeadAttention(name+".self", d, heads, rng),
		ff1:      nn.NewLinear(name+".ff1", d, ff, true, rng),
		ff2:      nn.NewLinearXavier(name+".ff2", ff, d, true, rng),
		ln1:      nn.NewLayerNorm(name+".ln1", d),
		ln2:      nn.NewLayerNorm(name+".ln2", d),
	}
	if decoder {
		b.crossAttn = nn.NewMultiHeadAttention(name+".cross", d, heads, rng)
		b.ln3 = nn.NewLayerNorm(name+".ln3", d)
	}
	return b
}

// forward runs the block over x [b*t, d]; memory is the encoder output for
// decoder blocks (nil in the encoder).
func (blk *transformerBlock) forward(ctx *nn.Ctx, x, memory *autograd.Var, b, t, tMem int, causal bool) *autograd.Var {
	h := blk.ln1.Forward(ctx, autograd.Add(x, blk.selfAttn.Forward(ctx, x, x, b, t, t, causal)))
	if blk.crossAttn != nil {
		h = blk.ln3.Forward(ctx, autograd.Add(h, blk.crossAttn.Forward(ctx, h, memory, b, t, tMem, false)))
	}
	ff := blk.ff2.Forward(ctx, autograd.ReLU(blk.ff1.Forward(ctx, h)))
	return blk.ln2.Forward(ctx, autograd.Add(h, ff))
}

func (blk *transformerBlock) Params() []*autograd.Param {
	ps := nn.CollectParams(blk.selfAttn, blk.ff1, blk.ff2, blk.ln1, blk.ln2)
	if blk.crossAttn != nil {
		ps = append(ps, nn.CollectParams(blk.crossAttn, blk.ln3)...)
	}
	return ps
}

// Transformer is the non-recurrent translation benchmark (§3.1.3): an
// encoder-decoder stack of attention blocks with sinusoidal positional
// encodings and a tied output projection to vocabulary logits.
type Transformer struct {
	Embed *nn.Embedding
	enc   []*transformerBlock
	dec   []*transformerBlock
	Proj  *nn.Linear
	D     int
	Heads int
}

// NewTransformer builds the model.
func NewTransformer(vocab, d, heads, ff, layers int, rng *tensor.RNG) *Transformer {
	t := &Transformer{
		Embed: nn.NewEmbedding("embed", vocab, d, rng),
		Proj:  nn.NewLinearXavier("proj", d, vocab, true, rng),
		D:     d,
		Heads: heads,
	}
	// Scale embedding init up for attention stability.
	t.Embed.Table.Value.ScaleInPlace(100)
	for i := 0; i < layers; i++ {
		t.enc = append(t.enc, newTransformerBlock("enc"+nameIdx(i), d, heads, ff, false, rng))
		t.dec = append(t.dec, newTransformerBlock("dec"+nameIdx(i), d, heads, ff, true, rng))
	}
	return t
}

func nameIdx(i int) string { return "." + string(rune('0'+i%10)) }

// Encode embeds and encodes packed source ids (b rows of length t).
func (m *Transformer) Encode(ctx *nn.Ctx, src [][]int) *autograd.Var {
	b, t := len(src), len(src[0])
	flat := make([]int, 0, b*t)
	for _, row := range src {
		flat = append(flat, row...)
	}
	h := nn.AddPositional(m.Embed.Forward(ctx, flat), b, t, m.D)
	for _, blk := range m.enc {
		h = blk.forward(ctx, h, nil, b, t, 0, false)
	}
	return h
}

// Decode runs the decoder over packed target-input ids given encoder
// memory, returning vocabulary logits [b*t, vocab].
func (m *Transformer) Decode(ctx *nn.Ctx, decIn [][]int, memory *autograd.Var, tMem int) *autograd.Var {
	b, t := len(decIn), len(decIn[0])
	flat := make([]int, 0, b*t)
	for _, row := range decIn {
		flat = append(flat, row...)
	}
	h := nn.AddPositional(m.Embed.Forward(ctx, flat), b, t, m.D)
	for _, blk := range m.dec {
		h = blk.forward(ctx, h, memory, b, t, tMem, true)
	}
	return m.Proj.Forward(ctx, h)
}

// Params implements nn.Module.
func (m *Transformer) Params() []*autograd.Param {
	ps := nn.CollectParams(m.Embed, m.Proj)
	for _, blk := range m.enc {
		ps = append(ps, blk.Params()...)
	}
	for _, blk := range m.dec {
		ps = append(ps, blk.Params()...)
	}
	return ps
}

// MTHParams are the tunables shared by both translation benchmarks.
type MTHParams struct {
	Batch  int
	LR     float64
	D      int
	Heads  int
	FF     int
	Layers int
	Warmup int
	// ClipNorm caps the global gradient norm (0 disables).
	ClipNorm float64
}

// DefaultTransformerHParams is the reference configuration.
func DefaultTransformerHParams() MTHParams {
	return MTHParams{Batch: 16, LR: 0.05, D: 24, Heads: 2, FF: 48, Layers: 2, Warmup: 100, ClipNorm: 5}
}

// Translation is the Transformer workload over the synthetic parallel
// corpus.
type Translation struct {
	HP    MTHParams
	DS    *datasets.MTDataset
	Net   *Transformer
	Opt   opt.Optimizer
	Sched opt.Schedule

	srcLen, tgtLen int
	params         []*autograd.Param
	loader         *data.Loader
	rng            *tensor.RNG
	epoch, steps   int

	// Reused microbatch id buffers (MicrobatchLoss).
	mbSrc, mbDec, mbLab []int

	// The batched greedy decoder (Evaluate, Translate).
	dec *greedyDecoder
}

// mtOptimizer builds the translation benchmark optimizer for a parameter
// list (factored out for per-stage pipeline optimizers; see imageOptimizer).
func mtOptimizer(hp MTHParams, params []*autograd.Param) opt.Optimizer {
	return opt.NewAdam(params, hp.LR, 0.9, 0.98, 1e-9, 0)
}

// NewTranslation builds the Transformer workload.
func NewTranslation(ds *datasets.MTDataset, hp MTHParams, seed uint64) *Translation {
	rng := tensor.NewRNG(seed)
	net := NewTransformer(ds.Cfg.Vocab, hp.D, hp.Heads, hp.FF, hp.Layers, rng.Split(1))
	params := net.Params()
	w := &Translation{
		HP: hp, DS: ds, Net: net,
		Opt:    mtOptimizer(hp, params),
		Sched:  opt.InverseSqrt{Base: hp.LR, WarmupSteps: hp.Warmup},
		srcLen: ds.Cfg.MaxLen,
		tgtLen: ds.Cfg.MaxLen + 1, // room for EOS
		params: params,
		loader: data.NewLoader(len(ds.Train), hp.Batch, rng.Split(2)),
		rng:    rng.Split(3),
	}
	return w
}

// Name implements Workload.
func (w *Translation) Name() string { return "translation_transformer" }

// Epoch implements Workload.
func (w *Translation) Epoch() int { return w.epoch }

// Steps implements StepCounter.
func (w *Translation) Steps() int { return w.steps }

// TrainEpoch implements Workload (teacher-forced cross-entropy).
func (w *Translation) TrainEpoch() float64 {
	totalLoss, n := 0.0, 0
	for i := 0; i < w.loader.StepsPerEpoch(); i++ {
		idx, _ := w.loader.Next()
		pairs := make([]datasets.MTPair, len(idx))
		for j, id := range idx {
			pairs[j] = w.DS.Train[id]
		}
		src, decIn, labels := datasets.PadBatch(pairs, w.srcLen, w.tgtLen)
		flatLabels := make([]int, 0, len(labels)*w.tgtLen)
		for _, row := range labels {
			flatLabels = append(flatLabels, row...)
		}
		applySchedule(w.Opt, w.Sched, w.steps)
		loss := trainStep(nil, w.params, w.Opt, func(tape *autograd.Tape) *autograd.Var {
			ctx := nn.NewCtx(tape, true, w.rng)
			memory := w.Net.Encode(ctx, src)
			logits := w.Net.Decode(ctx, decIn, memory, w.srcLen)
			return autograd.SoftmaxCrossEntropy(logits, flatLabels)
		}, func() {
			if w.HP.ClipNorm > 0 {
				nn.ClipGradNorm(w.params, w.HP.ClipNorm)
			}
		})
		totalLoss += loss
		n++
		w.steps++
	}
	w.epoch++
	return totalLoss / float64(n)
}

// Translate greedy-decodes every source sentence in one tape-free batch
// (see greedyDecoder) and returns each sentence's tokens before EOS. The
// returned slices alias the decoder's buffers and stay valid until the
// next call.
func (w *Translation) Translate(srcs [][]int) [][]int {
	return w.decoder(len(srcs)).decode(srcs, nil)
}

// decoder returns the workload's greedy decoder, (re)allocating it when a
// batch of n sentences does not fit.
func (w *Translation) decoder(n int) *greedyDecoder {
	if w.dec == nil || w.dec.n < n {
		w.dec = newGreedyDecoder(w.Net, w.HP.FF, w.srcLen, w.tgtLen, n)
	}
	return w.dec
}

// argmaxRow returns the index of the first largest element of row.
//
//mlperfvet:hotpath
func argmaxRow(t *tensor.Tensor, row int) int {
	m := t.Shape[1]
	best, bi := t.Data[row*m], 0
	for j := 1; j < m; j++ {
		if v := t.Data[row*m+j]; v > best {
			best, bi = v, j
		}
	}
	return bi
}

// Evaluate implements Workload: corpus BLEU on the validation split with
// greedy decoding, all sentences in one batch.
func (w *Translation) Evaluate() float64 {
	srcs, refs := mtValidation(w.DS)
	return metrics.BLEU(w.Translate(srcs), refs)
}

// mtValidation returns the validation split's source sentences and their
// references with EOS stripped, for BLEU.
func mtValidation(ds *datasets.MTDataset) (srcs, refs [][]int) {
	srcs = make([][]int, len(ds.Val))
	refs = make([][]int, len(ds.Val))
	for i, p := range ds.Val {
		srcs[i] = p.Src
		refs[i] = p.Tgt
		if n := len(p.Tgt); n > 0 && p.Tgt[n-1] == datasets.EOS {
			refs[i] = p.Tgt[:n-1]
		}
	}
	return srcs, refs
}
