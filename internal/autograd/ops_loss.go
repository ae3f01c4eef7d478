package autograd

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// IgnoreLabel marks examples excluded from SoftmaxCrossEntropy (e.g. padding
// tokens in translation batches).
const IgnoreLabel = -1

// softmaxCEForward fills probs with row softmaxes of logits and returns the
// mean NLL over non-ignored labels plus the non-ignored count (min 1).
func softmaxCEForward(probs []float64, logits *tensor.Tensor, labels []int) (loss float64, count int) {
	n, m := logits.Shape[0], logits.Shape[1]
	for i := 0; i < n; i++ {
		row := logits.Data[i*m : (i+1)*m]
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		s := 0.0
		for j, v := range row {
			e := math.Exp(v - mx)
			probs[i*m+j] = e
			s += e
		}
		for j := 0; j < m; j++ {
			probs[i*m+j] /= s
		}
		if labels[i] == IgnoreLabel {
			continue
		}
		if labels[i] < 0 || labels[i] >= m {
			panic(fmt.Sprintf("autograd: label %d out of %d classes", labels[i], m))
		}
		p := probs[i*m+labels[i]]
		loss -= math.Log(math.Max(p, 1e-300))
		count++
	}
	if count == 0 {
		count = 1
	}
	return loss, count
}

// SoftmaxCrossEntropy fuses a row softmax with negative log-likelihood over
// integer class labels, returning the mean loss over non-ignored rows.
// The fused gradient (p - onehot)/n is far better conditioned than composing
// Softmax and Log, which is why every framework fuses it.
func SoftmaxCrossEntropy(logits *Var, labels []int) *Var {
	n, m := logits.Value.Shape[0], logits.Value.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("autograd: SoftmaxCrossEntropy %d labels for %d rows", len(labels), n))
	}
	tp := tapeOf(logits)
	if tp == nil {
		probs := make([]float64, n*m)
		loss, count := softmaxCEForward(probs, logits.Value, labels)
		return constResult(tensor.FromSlice([]float64{loss / float64(count)}, 1))
	}
	nd := tp.node(softmaxCEBack, logits, nil, nil)
	nd.buf = floatsCap(nd.buf, n*m)
	nd.idx = append(nd.idx[:0], labels...)
	loss, count := softmaxCEForward(nd.buf, logits.Value, labels)
	nd.i0 = count
	out := tp.result(nd, 1)
	out.Value.Data[0] = loss / float64(count)
	return out
}

func softmaxCEBack(nd *node) {
	logits := nd.a
	n, m := logits.Value.Shape[0], logits.Value.Shape[1]
	g := nd.out.Grad.Data[0] / float64(nd.i0)
	for i := 0; i < n; i++ {
		if nd.idx[i] == IgnoreLabel {
			continue
		}
		for j := 0; j < m; j++ {
			d := nd.buf[i*m+j]
			if j == nd.idx[i] {
				d -= 1
			}
			logits.Grad.Data[i*m+j] += g * d
		}
	}
}

// BCEWithLogits computes mean binary cross-entropy between logits and
// targets in [0,1], using the numerically stable log-sum-exp form.
func BCEWithLogits(logits *Var, targets []float64) *Var {
	n := logits.Value.Size()
	if len(targets) != n {
		panic(fmt.Sprintf("autograd: BCEWithLogits %d targets for %d logits", len(targets), n))
	}
	loss := 0.0
	for i := 0; i < n; i++ {
		x, t := logits.Value.Data[i], targets[i]
		// max(x,0) - x*t + log(1+exp(-|x|))
		loss += math.Max(x, 0) - x*t + math.Log1p(math.Exp(-math.Abs(x)))
	}
	tp := tapeOf(logits)
	if tp == nil {
		return constResult(tensor.FromSlice([]float64{loss / float64(n)}, 1))
	}
	nd := tp.node(bceBack, logits, nil, nil)
	nd.buf = append(nd.buf[:0], targets...)
	out := tp.result(nd, 1)
	out.Value.Data[0] = loss / float64(n)
	return out
}

func bceBack(nd *node) {
	logits := nd.a
	n := logits.Value.Size()
	g := nd.out.Grad.Data[0] / float64(n)
	for i := 0; i < n; i++ {
		sig := 1 / (1 + math.Exp(-logits.Value.Data[i]))
		logits.Grad.Data[i] += g * (sig - nd.buf[i])
	}
}

// MSE returns the mean squared error between pred and a constant target.
func MSE(pred *Var, target *tensor.Tensor) *Var {
	n := pred.Value.Size()
	if target.Size() != n {
		panic("autograd: MSE size mismatch")
	}
	loss := 0.0
	for i := 0; i < n; i++ {
		d := pred.Value.Data[i] - target.Data[i]
		loss += d * d
	}
	tp := tapeOf(pred)
	if tp == nil {
		return constResult(tensor.FromSlice([]float64{loss / float64(n)}, 1))
	}
	nd := tp.node(mseBack, pred, nil, nil)
	nd.aux = target
	out := tp.result(nd, 1)
	out.Value.Data[0] = loss / float64(n)
	return out
}

func mseBack(nd *node) {
	pred, target := nd.a, nd.aux
	n := pred.Value.Size()
	g := nd.out.Grad.Data[0] * 2 / float64(n)
	for i := 0; i < n; i++ {
		pred.Grad.Data[i] += g * (pred.Value.Data[i] - target.Data[i])
	}
}

// SmoothL1 returns the mean Huber loss (delta=1) between pred and a constant
// target — the box-regression loss of SSD and Mask R-CNN.
func SmoothL1(pred *Var, target *tensor.Tensor) *Var {
	n := pred.Value.Size()
	if target.Size() != n {
		panic("autograd: SmoothL1 size mismatch")
	}
	loss := 0.0
	for i := 0; i < n; i++ {
		d := pred.Value.Data[i] - target.Data[i]
		if a := math.Abs(d); a < 1 {
			loss += 0.5 * d * d
		} else {
			loss += a - 0.5
		}
	}
	tp := tapeOf(pred)
	if tp == nil {
		return constResult(tensor.FromSlice([]float64{loss / float64(n)}, 1))
	}
	nd := tp.node(smoothL1Back, pred, nil, nil)
	nd.aux = target
	out := tp.result(nd, 1)
	out.Value.Data[0] = loss / float64(n)
	return out
}

func smoothL1Back(nd *node) {
	pred, target := nd.a, nd.aux
	n := pred.Value.Size()
	g := nd.out.Grad.Data[0] / float64(n)
	for i := 0; i < n; i++ {
		d := pred.Value.Data[i] - target.Data[i]
		switch {
		case d > 1:
			pred.Grad.Data[i] += g
		case d < -1:
			pred.Grad.Data[i] -= g
		default:
			pred.Grad.Data[i] += g * d
		}
	}
}

// softCEForward fills probs with row softmaxes and returns the total
// -Σ π·log p loss against soft target rows.
func softCEForward(probs []float64, logits, targets *tensor.Tensor) float64 {
	n, m := logits.Shape[0], logits.Shape[1]
	loss := 0.0
	for i := 0; i < n; i++ {
		row := logits.Data[i*m : (i+1)*m]
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		s := 0.0
		for j, v := range row {
			e := math.Exp(v - mx)
			probs[i*m+j] = e
			s += e
		}
		logZ := math.Log(s) + mx
		for j := 0; j < m; j++ {
			probs[i*m+j] /= s
			if t := targets.Data[i*m+j]; t > 0 {
				loss -= t * (row[j] - logZ)
			}
		}
	}
	return loss
}

// SoftCrossEntropy is cross-entropy against soft target distributions
// (rows of targets sum to 1): the AlphaZero policy loss -Σ π·log p.
// Gradient per row is (softmax(logits) - π)/n.
func SoftCrossEntropy(logits *Var, targets *tensor.Tensor) *Var {
	n, m := logits.Value.Shape[0], logits.Value.Shape[1]
	if targets.Size() != n*m {
		panic("autograd: SoftCrossEntropy target size mismatch")
	}
	tp := tapeOf(logits)
	if tp == nil {
		probs := make([]float64, n*m)
		loss := softCEForward(probs, logits.Value, targets)
		return constResult(tensor.FromSlice([]float64{loss / float64(n)}, 1))
	}
	nd := tp.node(softCEBack, logits, nil, nil)
	nd.aux = targets
	nd.buf = floatsCap(nd.buf, n*m)
	loss := softCEForward(nd.buf, logits.Value, targets)
	out := tp.result(nd, 1)
	out.Value.Data[0] = loss / float64(n)
	return out
}

func softCEBack(nd *node) {
	logits, targets := nd.a, nd.aux
	n, m := logits.Value.Shape[0], logits.Value.Shape[1]
	g := nd.out.Grad.Data[0] / float64(n)
	for i := 0; i < n*m; i++ {
		logits.Grad.Data[i] += g * (nd.buf[i] - targets.Data[i])
	}
}
