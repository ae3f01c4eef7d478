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

// GNMT is the recurrent translation benchmark (§3.1.3): an LSTM
// encoder-decoder with Luong-style multiplicative attention and residual
// connections between stacked layers, the structural skeleton of Wu et al.
// (2016) at reduced width/depth.
type GNMT struct {
	Embed   *nn.Embedding
	Encoder *nn.StackedLSTM
	Decoder *nn.StackedLSTM
	// AttnCombine mixes [decoder state ; attention context] into the
	// attentional hidden state (Luong's Wc).
	AttnCombine *nn.Linear
	Proj        *nn.Linear
	Hidden      int
}

// NewGNMT builds the model.
func NewGNMT(vocab, embed, hidden, layers int, rng *tensor.RNG) *GNMT {
	return &GNMT{
		Embed:       nn.NewEmbedding("embed", vocab, embed, rng),
		Encoder:     nn.NewStackedLSTM("enc", embed, hidden, layers, true, rng),
		Decoder:     nn.NewStackedLSTM("dec", embed, hidden, layers, true, rng),
		AttnCombine: nn.NewLinearXavier("attn_c", 2*hidden, hidden, true, rng),
		Proj:        nn.NewLinearXavier("proj", hidden, vocab, true, rng),
		Hidden:      hidden,
	}
}

// Params implements nn.Module.
func (m *GNMT) Params() []*autograd.Param {
	return nn.CollectParams(m.Embed, m.Encoder, m.Decoder, m.AttnCombine, m.Proj)
}

// Encode runs the encoder over packed source ids (b rows × t cols),
// returning the top-layer output at each timestep.
func (m *GNMT) Encode(ctx *nn.Ctx, src [][]int) []*autograd.Var {
	b, t := len(src), len(src[0])
	states := m.Encoder.ZeroState(b)
	outs := make([]*autograd.Var, t)
	for step := 0; step < t; step++ {
		ids := make([]int, b)
		for i := 0; i < b; i++ {
			ids[i] = src[i][step]
		}
		x := m.Embed.Forward(ctx, ids)
		outs[step], states = m.Encoder.Step(ctx, x, states)
	}
	return outs
}

// attend computes Luong dot attention: weights over encoder outputs from
// the decoder state, then the weighted context vector.
func (m *GNMT) attend(ctx *nn.Ctx, h *autograd.Var, encOuts []*autograd.Var) *autograd.Var {
	scores := make([]*autograd.Var, len(encOuts))
	for t, enc := range encOuts {
		scores[t] = autograd.RowSum(autograd.Mul(h, enc)) // [B,1]
	}
	attn := autograd.SoftmaxRows(autograd.ConcatCols(scores...)) // [B,T]
	var context *autograd.Var
	for t, enc := range encOuts {
		term := autograd.MulColVec(autograd.SliceCols(attn, t, t+1), enc)
		if context == nil {
			context = term
		} else {
			context = autograd.Add(context, term)
		}
	}
	return context
}

// DecodeStep advances the decoder one step: embed the input token, run the
// stacked LSTM, attend over the encoder outputs, and combine.
func (m *GNMT) DecodeStep(ctx *nn.Ctx, ids []int, states []nn.State, encOuts []*autograd.Var) (*autograd.Var, []nn.State) {
	x := m.Embed.Forward(ctx, ids)
	h, next := m.Decoder.Step(ctx, x, states)
	contextVec := m.attend(ctx, h, encOuts)
	combined := autograd.Tanh(m.AttnCombine.Forward(ctx, autograd.ConcatCols(h, contextVec)))
	return m.Proj.Forward(ctx, combined), next
}

// DefaultGNMTHParams is the reference configuration.
func DefaultGNMTHParams() MTHParams {
	return MTHParams{Batch: 16, LR: 0.01, D: 20, Heads: 1, FF: 0, Layers: 2, Warmup: 0, ClipNorm: 5}
}

// RNNTranslation is the GNMT workload.
type RNNTranslation struct {
	HP  MTHParams
	DS  *datasets.MTDataset
	Net *GNMT
	Opt opt.Optimizer

	srcLen, tgtLen int
	params         []*autograd.Param
	loader         *data.Loader
	rng            *tensor.RNG
	epoch, steps   int
}

// NewRNNTranslation builds the GNMT workload. HP.D is the embedding width;
// hidden width is 2·D.
func NewRNNTranslation(ds *datasets.MTDataset, hp MTHParams, seed uint64) *RNNTranslation {
	rng := tensor.NewRNG(seed)
	net := NewGNMT(ds.Cfg.Vocab, hp.D, 2*hp.D, hp.Layers, rng.Split(1))
	params := net.Params()
	return &RNNTranslation{
		HP: hp, DS: ds, Net: net,
		Opt:    opt.NewAdam(params, hp.LR, 0.9, 0.999, 1e-8, 0),
		srcLen: ds.Cfg.MaxLen,
		tgtLen: ds.Cfg.MaxLen + 1,
		params: params,
		loader: data.NewLoader(len(ds.Train), hp.Batch, rng.Split(2)),
		rng:    rng.Split(3),
	}
}

// Name implements Workload.
func (w *RNNTranslation) Name() string { return "translation_gnmt" }

// Epoch implements Workload.
func (w *RNNTranslation) Epoch() int { return w.epoch }

// Steps implements StepCounter.
func (w *RNNTranslation) Steps() int { return w.steps }

// TrainEpoch implements Workload (teacher forcing).
func (w *RNNTranslation) TrainEpoch() float64 {
	totalLoss, n := 0.0, 0
	for i := 0; i < w.loader.StepsPerEpoch(); i++ {
		idx, _ := w.loader.Next()
		pairs := make([]datasets.MTPair, len(idx))
		for j, id := range idx {
			pairs[j] = w.DS.Train[id]
		}
		src, decIn, labels := datasets.PadBatch(pairs, w.srcLen, w.tgtLen)
		loss := trainStep(nil, w.params, w.Opt, func(tape *autograd.Tape) *autograd.Var {
			ctx := nn.NewCtx(tape, true, w.rng)
			encOuts := w.Net.Encode(ctx, src)
			states := w.Net.Decoder.ZeroState(len(src))
			var total *autograd.Var
			for t := 0; t < w.tgtLen; t++ {
				ids := make([]int, len(decIn))
				lb := make([]int, len(decIn))
				for b := range decIn {
					ids[b] = decIn[b][t]
					lb[b] = labels[b][t]
				}
				var logits *autograd.Var
				logits, states = w.Net.DecodeStep(ctx, ids, states, encOuts)
				stepLoss := autograd.SoftmaxCrossEntropy(logits, lb)
				if total == nil {
					total = stepLoss
				} else {
					total = autograd.Add(total, stepLoss)
				}
			}
			return autograd.Scale(total, 1/float64(w.tgtLen))
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

// translate greedy-decodes every source sentence in lockstep on one
// tape: one batched Encode, then DecodeStep over all sentences at once,
// each sentence's output ending at EOS (finished sentences keep stepping
// until the batch is done, their logits ignored). Every GNMT op is
// row-wise, so a sentence's tokens do not depend on its batch-mates.
func (w *RNNTranslation) translate(srcs [][]int) [][]int {
	padded := make([][]int, len(srcs))
	for i, src := range srcs {
		padded[i] = make([]int, w.srcLen)
		copy(padded[i], src)
	}
	ctx := nn.NewCtx(autograd.NewTape(), false, w.rng)
	encOuts := w.Net.Encode(ctx, padded)
	states := w.Net.Decoder.ZeroState(len(srcs))
	cur := make([]int, len(srcs))
	for i := range cur {
		cur[i] = datasets.BOS
	}
	out := make([][]int, len(srcs))
	done := make([]bool, len(srcs))
	live := len(srcs)
	for t := 0; t < w.tgtLen && live > 0; t++ {
		var logits *autograd.Var
		logits, states = w.Net.DecodeStep(ctx, cur, states, encOuts)
		for i := range cur {
			if done[i] {
				continue
			}
			next := argmaxRow(logits.Value, i)
			if next == datasets.EOS {
				done[i] = true
				live--
				continue
			}
			out[i] = append(out[i], next)
			cur[i] = next
		}
	}
	return out
}

// Evaluate implements Workload: corpus BLEU with greedy decoding, all
// validation sentences in one batch.
func (w *RNNTranslation) Evaluate() float64 {
	srcs, refs := mtValidation(w.DS)
	return metrics.BLEU(w.translate(srcs), refs)
}
