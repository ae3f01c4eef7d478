package models

import (
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// greedyDecoder is the Transformer's tape-free batched greedy decoder, the
// hot path of Translation.Evaluate. One call:
//
//  1. encodes every source sentence at once, padded to srcLen;
//  2. projects each decoder block's cross-attention keys and values of the
//     encoder memory once;
//  3. at step t, runs only row t of every unfinished sentence through the
//     decoder blocks, appending that row's self-attention key and value to
//     a per-block cache and attending over cache rows 0..t;
//  4. projects that row to logits and takes the argmax; a sentence stops
//     at EOS and leaves the batch.
//
// Every buffer is allocated for the largest batch seen and reused, so a
// warm decode allocates nothing.
//
// Tokens and logits equal the per-sentence tape decode's bit for bit. The
// GEMM sums every output element in ascending k at any shape, so a row
// computed alone equals the same row inside a full matrix. Embedding,
// LayerNorm, feed-forward, the projection and the residual adds are
// per-row. nn.MultiHeadAttention.Attend documents why attending over cache
// rows 0..t equals the causally masked full-sequence attention. And an
// eval-mode forward draws no randomness.
type greedyDecoder struct {
	net            *Transformer
	srcLen, tgtLen int
	n              int // sentences the buffers hold

	pe  []float64      // positional encodings, max(srcLen, tgtLen) rows of width D
	mem *tensor.Tensor // encoder output [n·srcLen, D]

	// Row workspaces sized for the encoder's n·srcLen rows, which also
	// bounds a decoder step's at most n rows.
	x, q, k, v, att, tmp, ff *tensor.Tensor
	logits                   *tensor.Tensor // [n, vocab]

	// Per decoder block: self-attention key/value caches [n·tgtLen, D]
	// (sentence s, position t at row s·tgtLen+t) and cross-attention
	// keys/values of the memory [n·srcLen, D].
	selfK, selfV, crossK, crossV []*tensor.Tensor

	scores []float64 // attention scores of one query row and head
	active []int     // unfinished sentences, ascending
	toks   []int     // emitted tokens, tgtLen slots per sentence
	out    [][]int   // per-sentence views of toks
}

func newGreedyDecoder(net *Transformer, ff, srcLen, tgtLen, n int) *greedyDecoder {
	d, nr := net.D, n*srcLen
	g := &greedyDecoder{
		net: net, srcLen: srcLen, tgtLen: tgtLen, n: n,
		pe:     nn.PositionalEncoding(max(srcLen, tgtLen), d).Data,
		mem:    tensor.New(nr, d),
		x:      tensor.New(nr, d),
		q:      tensor.New(nr, d),
		k:      tensor.New(nr, d),
		v:      tensor.New(nr, d),
		att:    tensor.New(nr, d),
		tmp:    tensor.New(nr, d),
		ff:     tensor.New(nr, ff),
		logits: tensor.New(n, net.Proj.W.Value.Shape[1]),
		scores: make([]float64, max(srcLen, tgtLen)),
		active: make([]int, n),
		toks:   make([]int, n*tgtLen),
		out:    make([][]int, n),
	}
	for range net.dec {
		g.selfK = append(g.selfK, tensor.New(n*tgtLen, d))
		g.selfV = append(g.selfV, tensor.New(n*tgtLen, d))
		g.crossK = append(g.crossK, tensor.New(nr, d))
		g.crossV = append(g.crossV, tensor.New(nr, d))
	}
	return g
}

// rows views workspace t, allocated for its largest use, as its first r
// rows.
//
//mlperfvet:hotpath
func rows(t *tensor.Tensor, r int) *tensor.Tensor {
	t.Shape[0] = r
	t.Data = t.Data[:r*t.Shape[1]]
	return t
}

// decode greedy-decodes srcs (at most g.n sentences) and returns each
// sentence's tokens before EOS, as views of g.toks. onLogits, when
// non-nil, sees every step's logits: row r belongs to sentence active[r].
//
//mlperfvet:hotpath
func (g *greedyDecoder) decode(srcs [][]int, onLogits func(t int, active []int, logits *tensor.Tensor)) [][]int {
	nb := len(srcs)
	d := g.net.D
	h := rows(g.mem, nb*g.srcLen)
	for s, src := range srcs {
		for j := 0; j < g.srcLen; j++ {
			id := datasets.PAD
			if j < len(src) {
				id = src[j]
			}
			row := (s*g.srcLen + j) * d
			g.embed(h.Data[row:row+d], id, j)
		}
	}
	for _, blk := range g.net.enc {
		g.encoderBlock(blk, h, nb)
	}
	for i, blk := range g.net.dec {
		blk.crossAttn.Wk.ApplyInto(rows(g.crossK[i], h.Shape[0]), h)
		blk.crossAttn.Wv.ApplyInto(rows(g.crossV[i], h.Shape[0]), h)
	}

	active := g.active[:nb]
	for s := range active {
		active[s] = s
		g.out[s] = g.toks[s*g.tgtLen : s*g.tgtLen]
	}
	for t := 0; t < g.tgtLen && len(active) > 0; t++ {
		x := rows(g.x, len(active))
		for r, s := range active {
			// An unfinished sentence emitted a token at every earlier step.
			id := datasets.BOS
			if t > 0 {
				id = g.toks[s*g.tgtLen+t-1]
			}
			g.embed(x.Data[r*d:(r+1)*d], id, t)
		}
		for i, blk := range g.net.dec {
			g.decoderBlock(i, blk, x, active, t)
		}
		logits := rows(g.logits, len(active))
		g.net.Proj.ApplyInto(logits, x)
		if onLogits != nil {
			onLogits(t, active, logits)
		}
		kept := 0
		for r, s := range active {
			next := argmaxRow(logits, r)
			if next == datasets.EOS {
				continue
			}
			g.toks[s*g.tgtLen+t] = next
			g.out[s] = g.toks[s*g.tgtLen : s*g.tgtLen+t+1]
			active[kept] = s
			kept++
		}
		active = active[:kept]
	}
	return g.out[:nb]
}

// embed writes token id's embedding plus position pos's encoding into dst.
//
//mlperfvet:hotpath
func (g *greedyDecoder) embed(dst []float64, id, pos int) {
	d := len(dst)
	table := g.net.Embed.Table.Value.Data[id*d : (id+1)*d]
	pe := g.pe[pos*d : (pos+1)*d]
	for c, e := range table {
		dst[c] = e + pe[c]
	}
}

// encoderBlock runs an encoder block in place over h, nb sentences of
// srcLen rows each.
//
//mlperfvet:hotpath
func (g *greedyDecoder) encoderBlock(blk *transformerBlock, h *tensor.Tensor, nb int) {
	n := h.Shape[0]
	q, k, v := rows(g.q, n), rows(g.k, n), rows(g.v, n)
	att, tmp := rows(g.att, n), rows(g.tmp, n)
	sa := blk.selfAttn
	sa.Wq.ApplyInto(q, h)
	sa.Wk.ApplyInto(k, h)
	sa.Wv.ApplyInto(v, h)
	span := g.srcLen * g.net.D
	for s := 0; s < nb; s++ {
		lo, hi := s*span, (s+1)*span
		sa.Attend(att.Data[lo:hi], q.Data[lo:hi], k.Data[lo:hi], v.Data[lo:hi], g.srcLen, g.srcLen, g.scores)
	}
	sa.Wo.ApplyInto(tmp, att)
	tensor.AddInto(h, h, tmp)
	blk.ln1.ApplyInto(h, h)
	g.feedForward(blk, h)
}

// decoderBlock runs decoder block i in place over x, whose row r is
// position t of sentence active[r].
//
//mlperfvet:hotpath
func (g *greedyDecoder) decoderBlock(i int, blk *transformerBlock, x *tensor.Tensor, active []int, t int) {
	d, n := g.net.D, x.Shape[0]
	q, k, v := rows(g.q, n), rows(g.k, n), rows(g.v, n)
	att, tmp := rows(g.att, n), rows(g.tmp, n)

	sa := blk.selfAttn
	sa.Wq.ApplyInto(q, x)
	sa.Wk.ApplyInto(k, x)
	sa.Wv.ApplyInto(v, x)
	cacheK, cacheV := g.selfK[i].Data, g.selfV[i].Data
	for r, s := range active {
		base := s * g.tgtLen * d
		copy(cacheK[base+t*d:base+(t+1)*d], k.Data[r*d:(r+1)*d])
		copy(cacheV[base+t*d:base+(t+1)*d], v.Data[r*d:(r+1)*d])
		sa.Attend(att.Data[r*d:(r+1)*d], q.Data[r*d:(r+1)*d], cacheK[base:], cacheV[base:], 1, t+1, g.scores)
	}
	sa.Wo.ApplyInto(tmp, att)
	tensor.AddInto(x, x, tmp)
	blk.ln1.ApplyInto(x, x)

	ca := blk.crossAttn
	ca.Wq.ApplyInto(q, x)
	memK, memV := g.crossK[i].Data, g.crossV[i].Data
	for r, s := range active {
		base := s * g.srcLen * d
		ca.Attend(att.Data[r*d:(r+1)*d], q.Data[r*d:(r+1)*d], memK[base:], memV[base:], 1, g.srcLen, g.scores)
	}
	ca.Wo.ApplyInto(tmp, att)
	tensor.AddInto(x, x, tmp)
	blk.ln3.ApplyInto(x, x)
	g.feedForward(blk, x)
}

// feedForward applies the block's position-wise feed-forward network and
// its residual LayerNorm in place over x.
//
//mlperfvet:hotpath
func (g *greedyDecoder) feedForward(blk *transformerBlock, x *tensor.Tensor) {
	n := x.Shape[0]
	ff, tmp := rows(g.ff, n), rows(g.tmp, n)
	blk.ff1.ApplyInto(ff, x)
	tensor.ReLUInto(ff, ff)
	blk.ff2.ApplyInto(tmp, ff)
	tensor.AddInto(x, x, tmp)
	blk.ln2.ApplyInto(x, x)
}
