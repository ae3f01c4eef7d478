package autograd

import (
	"fmt"

	"repro/internal/tensor"
)

// Add returns a + b (elementwise, equal shapes).
func Add(a, b *Var) *Var {
	tp := tapeOf(a, b)
	if tp == nil {
		return constResult(tensor.Add(a.Value, b.Value))
	}
	nd := tp.node(addBack, a, b, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.AddInto(out.Value, a.Value, b.Value)
	return out
}

//mlperfvet:hotpath
func addBack(nd *node) {
	if nd.a.tape != nil {
		nd.a.Grad.AddInPlace(nd.out.Grad)
	}
	if nd.b.tape != nil {
		nd.b.Grad.AddInPlace(nd.out.Grad)
	}
}

// Sub returns a - b (elementwise, equal shapes).
func Sub(a, b *Var) *Var {
	tp := tapeOf(a, b)
	if tp == nil {
		return constResult(tensor.Sub(a.Value, b.Value))
	}
	nd := tp.node(subBack, a, b, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.SubInto(out.Value, a.Value, b.Value)
	return out
}

//mlperfvet:hotpath
func subBack(nd *node) {
	if nd.a.tape != nil {
		nd.a.Grad.AddInPlace(nd.out.Grad)
	}
	if nd.b.tape != nil {
		nd.b.Grad.AxpyInPlace(-1, nd.out.Grad)
	}
}

// Mul returns the Hadamard product a * b.
func Mul(a, b *Var) *Var {
	tp := tapeOf(a, b)
	if tp == nil {
		return constResult(tensor.Mul(a.Value, b.Value))
	}
	nd := tp.node(mulBack, a, b, nil)
	out := tp.result(nd, a.Value.Shape...)
	tensor.MulInto(out.Value, a.Value, b.Value)
	return out
}

//mlperfvet:hotpath
func mulBack(nd *node) {
	a, b, out := nd.a, nd.b, &nd.out
	if a.tape != nil {
		for i := range a.Grad.Data {
			a.Grad.Data[i] += out.Grad.Data[i] * b.Value.Data[i]
		}
	}
	if b.tape != nil {
		for i := range b.Grad.Data {
			b.Grad.Data[i] += out.Grad.Data[i] * a.Value.Data[i]
		}
	}
}

// Scale returns s * a for a compile-time constant s.
func Scale(a *Var, s float64) *Var {
	tp := tapeOf(a)
	if tp == nil {
		return constResult(tensor.Scale(a.Value, s))
	}
	nd := tp.node(scaleBack, a, nil, nil)
	nd.f0 = s
	out := tp.result(nd, a.Value.Shape...)
	tensor.ScaleInto(out.Value, a.Value, s)
	return out
}

//mlperfvet:hotpath
func scaleBack(nd *node) { nd.a.Grad.AxpyInPlace(nd.f0, nd.out.Grad) }

// Neg returns -a.
func Neg(a *Var) *Var { return Scale(a, -1) }

// AddScalar returns a + s elementwise.
func AddScalar(a *Var, s float64) *Var {
	tp := tapeOf(a)
	if tp == nil {
		return constResult(tensor.Apply(a.Value, func(v float64) float64 { return v + s }))
	}
	nd := tp.node(addScalarBack, a, nil, nil)
	out := tp.result(nd, a.Value.Shape...)
	for i, v := range a.Value.Data {
		out.Value.Data[i] = v + s
	}
	return out
}

//mlperfvet:hotpath
func addScalarBack(nd *node) { nd.a.Grad.AddInPlace(nd.out.Grad) }

// AddRowVec broadcasts a row vector b [m] over every row of a [n,m]
// (the standard bias add of a linear layer).
func AddRowVec(a, b *Var) *Var {
	if a.Value.Rank() != 2 || b.Value.Rank() != 1 || a.Value.Shape[1] != b.Value.Shape[0] {
		panic(fmt.Sprintf("autograd: AddRowVec shapes %v + %v", a.Value.Shape, b.Value.Shape))
	}
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	tp := tapeOf(a, b)
	if tp == nil {
		val := tensor.New(n, m)
		tensor.AddRowVecInto(val, a.Value, b.Value)
		return constResult(val)
	}
	nd := tp.node(addRowVecBack, a, b, nil)
	out := tp.result(nd, n, m)
	tensor.AddRowVecInto(out.Value, a.Value, b.Value)
	return out
}

//mlperfvet:hotpath
func addRowVecBack(nd *node) {
	a, b, out := nd.a, nd.b, &nd.out
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	if a.tape != nil {
		a.Grad.AddInPlace(out.Grad)
	}
	if b.tape != nil {
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				b.Grad.Data[j] += out.Grad.Data[i*m+j]
			}
		}
	}
}

// MulColVec broadcasts a column vector a [n,1] across the columns of b
// [n,m]: out[i,j] = a[i,0] * b[i,j]. Used for attention-weighted sums.
func MulColVec(a, b *Var) *Var {
	if a.Value.Rank() != 2 || a.Value.Shape[1] != 1 || b.Value.Rank() != 2 || a.Value.Shape[0] != b.Value.Shape[0] {
		panic(fmt.Sprintf("autograd: MulColVec shapes %v * %v", a.Value.Shape, b.Value.Shape))
	}
	n, m := b.Value.Shape[0], b.Value.Shape[1]
	tp := tapeOf(a, b)
	if tp == nil {
		val := tensor.New(n, m)
		mulColVec(val, a.Value, b.Value)
		return constResult(val)
	}
	nd := tp.node(mulColVecBack, a, b, nil)
	out := tp.result(nd, n, m)
	mulColVec(out.Value, a.Value, b.Value)
	return out
}

func mulColVec(dst, a, b *tensor.Tensor) {
	n, m := b.Shape[0], b.Shape[1]
	for i := 0; i < n; i++ {
		av := a.Data[i]
		for j := 0; j < m; j++ {
			dst.Data[i*m+j] = av * b.Data[i*m+j]
		}
	}
}

//mlperfvet:hotpath
func mulColVecBack(nd *node) {
	a, b, out := nd.a, nd.b, &nd.out
	n, m := b.Value.Shape[0], b.Value.Shape[1]
	if a.tape != nil {
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < m; j++ {
				s += out.Grad.Data[i*m+j] * b.Value.Data[i*m+j]
			}
			a.Grad.Data[i] += s
		}
	}
	if b.tape != nil {
		for i := 0; i < n; i++ {
			av := a.Value.Data[i]
			for j := 0; j < m; j++ {
				b.Grad.Data[i*m+j] += out.Grad.Data[i*m+j] * av
			}
		}
	}
}

// Reshape returns a with a new shape of the same size. Value flows through
// as a view (shared data); the gradient gets its own buffer and folds back.
func Reshape(a *Var, shape ...int) *Var {
	tp := tapeOf(a)
	if tp == nil {
		return constResult(a.Value.Reshape(shape...))
	}
	if numel(shape) != len(a.Value.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", a.Value.Shape, shape))
	}
	nd := tp.node(reshapeBack, a, nil, nil)
	// The output value aliases a's data, so build the view by hand instead
	// of through result (which would give the slot its own buffer).
	v := &nd.out
	v.tape = tp
	if v.Value == nil || v.Value.Arena() || !sameShape(v.Value, shape) {
		if v.Value != nil && v.Value.Arena() {
			// Slot previously held an op's pooled output; return it.
			v.Value.Release()
		}
		v.Value = a.Value.Reshape(shape...)
	} else {
		v.Value.Data = a.Value.Data
	}
	tp.ensureTensor(&v.Grad, shape...)
	v.Grad.Zero()
	return v
}

//mlperfvet:hotpath
func reshapeBack(nd *node) {
	// Shapes differ but sizes match: fold the flat gradient back.
	ag, og := nd.a.Grad.Data, nd.out.Grad.Data
	for i := range ag {
		ag[i] += og[i]
	}
}

// ConcatCols concatenates 2-D vars along columns: [n,m1],[n,m2],... → [n,Σm].
func ConcatCols(vs ...*Var) *Var {
	if len(vs) == 0 {
		panic("autograd: ConcatCols of nothing")
	}
	n := vs[0].Value.Shape[0]
	total := 0
	for _, v := range vs {
		if v.Value.Rank() != 2 || v.Value.Shape[0] != n {
			panic("autograd: ConcatCols shape mismatch")
		}
		total += v.Value.Shape[1]
	}
	tp := tapeOf(vs...)
	if tp == nil {
		val := tensor.New(n, total)
		concatCols(val, vs)
		return constResult(val)
	}
	nd := tp.node(concatColsBack, nil, nil, nil)
	nd.vars = append(nd.vars[:0], vs...)
	out := tp.result(nd, n, total)
	concatCols(out.Value, vs)
	return out
}

func concatCols(dst *tensor.Tensor, vs []*Var) {
	n, total := dst.Shape[0], dst.Shape[1]
	off := 0
	for _, v := range vs {
		m := v.Value.Shape[1]
		for i := 0; i < n; i++ {
			copy(dst.Data[i*total+off:i*total+off+m], v.Value.Data[i*m:(i+1)*m])
		}
		off += m
	}
}

//mlperfvet:hotpath
func concatColsBack(nd *node) {
	out := &nd.out
	n, total := out.Value.Shape[0], out.Value.Shape[1]
	off := 0
	for _, v := range nd.vars {
		m := v.Value.Shape[1]
		if v.tape != nil {
			for i := 0; i < n; i++ {
				for j := 0; j < m; j++ {
					v.Grad.Data[i*m+j] += out.Grad.Data[i*total+off+j]
				}
			}
		}
		off += m
	}
}

// ConcatRows concatenates 2-D vars along rows: [n1,m],[n2,m],... → [Σn,m].
func ConcatRows(vs ...*Var) *Var {
	if len(vs) == 0 {
		panic("autograd: ConcatRows of nothing")
	}
	m := vs[0].Value.Shape[1]
	total := 0
	for _, v := range vs {
		if v.Value.Rank() != 2 || v.Value.Shape[1] != m {
			panic("autograd: ConcatRows shape mismatch")
		}
		total += v.Value.Shape[0]
	}
	tp := tapeOf(vs...)
	if tp == nil {
		val := tensor.New(total, m)
		concatRows(val, vs)
		return constResult(val)
	}
	nd := tp.node(concatRowsBack, nil, nil, nil)
	nd.vars = append(nd.vars[:0], vs...)
	out := tp.result(nd, total, m)
	concatRows(out.Value, vs)
	return out
}

func concatRows(dst *tensor.Tensor, vs []*Var) {
	m := dst.Shape[1]
	off := 0
	for _, v := range vs {
		copy(dst.Data[off*m:], v.Value.Data)
		off += v.Value.Shape[0]
	}
}

//mlperfvet:hotpath
func concatRowsBack(nd *node) {
	out := &nd.out
	m := out.Value.Shape[1]
	off := 0
	for _, v := range nd.vars {
		n := v.Value.Shape[0]
		if v.tape != nil {
			for i := 0; i < n*m; i++ {
				v.Grad.Data[i] += out.Grad.Data[off*m+i]
			}
		}
		off += n
	}
}

// SliceCols returns columns [lo,hi) of a 2-D var.
func SliceCols(a *Var, lo, hi int) *Var {
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	if lo < 0 || hi > m || lo >= hi {
		panic(fmt.Sprintf("autograd: SliceCols [%d,%d) of width %d", lo, hi, m))
	}
	w := hi - lo
	tp := tapeOf(a)
	if tp == nil {
		val := tensor.New(n, w)
		sliceCols(val, a.Value, lo)
		return constResult(val)
	}
	nd := tp.node(sliceColsBack, a, nil, nil)
	nd.i0, nd.i1 = lo, hi
	out := tp.result(nd, n, w)
	sliceCols(out.Value, a.Value, lo)
	return out
}

func sliceCols(dst, a *tensor.Tensor, lo int) {
	n, m := a.Shape[0], a.Shape[1]
	w := dst.Shape[1]
	for i := 0; i < n; i++ {
		copy(dst.Data[i*w:(i+1)*w], a.Data[i*m+lo:i*m+lo+w])
	}
}

//mlperfvet:hotpath
func sliceColsBack(nd *node) {
	a, out := nd.a, &nd.out
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	lo := nd.i0
	w := nd.i1 - nd.i0
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			a.Grad.Data[i*m+lo+j] += out.Grad.Data[i*w+j]
		}
	}
}

// SliceRows returns rows [lo,hi) of a 2-D var.
func SliceRows(a *Var, lo, hi int) *Var {
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("autograd: SliceRows [%d,%d) of height %d", lo, hi, n))
	}
	h := hi - lo
	tp := tapeOf(a)
	if tp == nil {
		val := tensor.New(h, m)
		copy(val.Data, a.Value.Data[lo*m:hi*m])
		return constResult(val)
	}
	nd := tp.node(sliceRowsBack, a, nil, nil)
	nd.i0, nd.i1 = lo, hi
	out := tp.result(nd, h, m)
	copy(out.Value.Data, a.Value.Data[lo*m:hi*m])
	return out
}

//mlperfvet:hotpath
func sliceRowsBack(nd *node) {
	a, out := nd.a, &nd.out
	m := a.Value.Shape[1]
	lo := nd.i0
	h := nd.i1 - nd.i0
	for i := 0; i < h*m; i++ {
		a.Grad.Data[lo*m+i] += out.Grad.Data[i]
	}
}

// GatherRows selects rows of a 2-D var by index (with repetition allowed).
// Backward scatter-adds, so it doubles as the embedding-lookup primitive.
func GatherRows(a *Var, idx []int) *Var {
	n, m := a.Value.Shape[0], a.Value.Shape[1]
	tp := tapeOf(a)
	if tp == nil {
		val := tensor.New(len(idx), m)
		gatherRows(val, a.Value, idx, n)
		return constResult(val)
	}
	nd := tp.node(gatherRowsBack, a, nil, nil)
	nd.idx = append(nd.idx[:0], idx...)
	out := tp.result(nd, len(idx), m)
	gatherRows(out.Value, a.Value, idx, n)
	return out
}

func gatherRows(dst, a *tensor.Tensor, idx []int, n int) {
	m := a.Shape[1]
	for i, id := range idx {
		if id < 0 || id >= n {
			panic(fmt.Sprintf("autograd: GatherRows index %d out of %d", id, n))
		}
		copy(dst.Data[i*m:(i+1)*m], a.Data[id*m:(id+1)*m])
	}
}

//mlperfvet:hotpath
func gatherRowsBack(nd *node) {
	a, out := nd.a, &nd.out
	m := a.Value.Shape[1]
	for i, id := range nd.idx {
		for j := 0; j < m; j++ {
			a.Grad.Data[id*m+j] += out.Grad.Data[i*m+j]
		}
	}
}
