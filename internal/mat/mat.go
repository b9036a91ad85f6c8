// Package mat implements the dense linear algebra substrate used by the
// NObLe reproduction: a row-major float64 matrix type, the handful of
// BLAS-like kernels needed for feed-forward networks (GEMM in the three
// orientations required by backpropagation), element-wise helpers,
// deterministic random fills, a Gaussian-elimination linear solver, and a
// Jacobi eigendecomposition for symmetric matrices (used by the classical
// MDS / Isomap / LLE baselines).
//
// Everything is written against the standard library only. Matrices are
// deliberately simple — a shape plus a flat backing slice — because the
// networks in this repository are small, static graphs; clarity and
// determinism matter more than peak throughput.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major matrix of float64 values. The zero value is an empty
// matrix; use New or FromSlice to construct a usable one. Data holds
// Rows*Cols elements with element (i,j) at Data[i*Cols+j].
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed r×c matrix. It panics if either dimension is
// negative or if both are zero in a way that would alias (r*c must be
// representable).
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: New with negative dimension %d×%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data as an r×c matrix without copying. The caller must not
// reuse data independently afterwards. It panics if len(data) != r*c.
func FromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice got %d values for %d×%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// FromRows builds a matrix by copying the given rows. All rows must have the
// same length; it panics otherwise or when rows is empty.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		panic("mat: FromRows with no rows")
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: FromRows row %d has %d values, want %d", i, len(row), c))
		}
		copy(m.Row(i), row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j). Bounds are checked by the underlying slice
// access in debug scenarios; no extra checks are performed here.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i (no copy).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// SetRow copies v into row i; it panics if len(v) != Cols.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: SetRow len %d want %d", len(v), m.Cols))
	}
	copy(m.Row(i), v)
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Reshape returns a view of m with new shape r×c sharing the same backing
// data. It panics if r*c != Rows*Cols.
func (m *Dense) Reshape(r, c int) *Dense {
	if r*c != m.Rows*m.Cols {
		panic(fmt.Sprintf("mat: Reshape %d×%d to %d×%d", m.Rows, m.Cols, r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: m.Data}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Zero sets every element of m to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Apply replaces every element x with f(x).
func (m *Dense) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// Map returns a new matrix whose elements are f applied to m's elements.
func (m *Dense) Map(f func(float64) float64) *Dense {
	out := m.Clone()
	out.Apply(f)
	return out
}

// Scale multiplies every element by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddInPlace adds b to m element-wise. Shapes must match.
func (m *Dense) AddInPlace(b *Dense) {
	sameShape("AddInPlace", m, b)
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// SubInPlace subtracts b from m element-wise. Shapes must match.
func (m *Dense) SubInPlace(b *Dense) {
	sameShape("SubInPlace", m, b)
	for i, v := range b.Data {
		m.Data[i] -= v
	}
}

// AxpyInPlace computes m += alpha*b element-wise. Shapes must match.
func (m *Dense) AxpyInPlace(alpha float64, b *Dense) {
	sameShape("AxpyInPlace", m, b)
	for i, v := range b.Data {
		m.Data[i] += alpha * v
	}
}

// MulElemInPlace multiplies m by b element-wise (Hadamard product).
func (m *Dense) MulElemInPlace(b *Dense) {
	sameShape("MulElemInPlace", m, b)
	for i, v := range b.Data {
		m.Data[i] *= v
	}
}

// Add returns a+b as a new matrix.
func Add(a, b *Dense) *Dense {
	out := a.Clone()
	out.AddInPlace(b)
	return out
}

// Sub returns a-b as a new matrix.
func Sub(a, b *Dense) *Dense {
	out := a.Clone()
	out.SubInPlace(b)
	return out
}

// MulElem returns the Hadamard (element-wise) product of a and b.
func MulElem(a, b *Dense) *Dense {
	out := a.Clone()
	out.MulElemInPlace(b)
	return out
}

// AddRowVec adds the 1×c row vector v to every row of m in place.
func (m *Dense) AddRowVec(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVec len %d want %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range v {
			row[j] += x
		}
	}
}

// SumRows returns the column-wise sum of m as a length-Cols slice
// (i.e. the sum over the batch dimension).
func (m *Dense) SumRows() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// MatMul returns a*b. It panics if a.Cols != b.Rows.
func MatMul(a, b *Dense) *Dense {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a*b, overwriting dst. dst must be a.Rows×b.Cols
// and must not alias a or b.
//
// Rows go eight at a time through the 8×4 register tile, which shares
// each loaded b element across eight a rows — the amortization that
// makes one coalesced PredictBatch pass cheaper per sample than
// row-by-row inference; five to seven left-over rows take the same tile
// with the last row repeated into the spare lanes (duplicate lanes
// compute, and finally store, identical values). One to four left-over
// rows — the lone-device fix and the small passes an open-loop fleet
// forms — take matMulRows: the row sweep. Every element, whichever
// kernel produces it, accumulates its products in ascending-k order as
// separate un-fused multiplies and adds, so all of them agree with the
// plain triple loop bit for bit.
//
// b is read row-major, which costs the tile a whole-row stride per k
// step: at 32 rows it reaches ~30 gflop/s on a 256×256 b and ~15 on a
// 256×1002 one (docs/measurements/pr18-packed-panels.md); the sweep
// reads the same layout sequentially and does not care. This layout's
// callers are training, batches under PackedMinRows rows, and hosts
// without AVX; inference batches on weights that do not change between
// calls use Packed.MulInto.
func MatMulInto(dst, a, b *Dense) {
	checkMatMul(dst, a, b)
	dst.Zero()
	i := 0
	for ; i+8 <= a.Rows; i += 8 {
		matMulBlock8(dst, a, b, [8]int{i, i + 1, i + 2, i + 3, i + 4, i + 5, i + 6, i + 7})
	}
	switch rem := a.Rows - i; {
	case rem >= 5:
		idx := [8]int{}
		for l := range idx {
			idx[l] = min(i+l, a.Rows-1)
		}
		matMulBlock8(dst, a, b, idx)
	case rem >= 1:
		matMulRows(dst, a, b, i, rem)
	}
}

// matMulRows accumulates the one to four output rows [i, i+rows): on
// the row sweep where there is AVX, else on the pure-Go kernels (the
// scalar row; the four-row block with its last row repeated).
//
// The sweep has this range to itself because nothing else measured
// ahead of it where it counts (BenchmarkGemmB{1,2,3,4}, hot and with
// the weights streamed from L3 as a forward pass meets them, and core's
// BenchmarkWiFiPredictRows{1,2,3,4}; medians on the 2.1 GHz Xeon, every
// number in docs/measurements/pr19-row-sweep.md). It reads b's rows
// sequentially, so it does not pay the tiles' whole-row stride per k
// step. On the 256×1002 class head a lone dense row takes 42 µs hot
// and 74 streamed (12 and 7 gflop/s) against the scalar loop's 132 and
// 136; four rows take 99 and 128 µs against 267 and 340 for the 8×4
// tile padded with copies of the last row, which is what five to seven
// rows run. A 4×8 tile padded the same way is not kept either: at two
// rows it took 136 µs to the sweep's 55, and at four full rows — its
// best case — it was a tenth ahead of the sweep in a hot loop over one
// 160×128 matrix (5.8 against 6.4 µs) and level on 256×256, but behind
// on every shape once the weights stream (29.7 against 17.6 µs on
// 160×256; 184 against 128 on the head) and behind in the model, where
// a four-row PredictBatch takes 234 µs on the sweep and took 315.
func matMulRows(dst, a, b *Dense, i, rows int) {
	switch {
	case useAVXGemm && rows == 1:
		matMulRowSweep(dst, a, b, i)
	case useAVXGemm:
		matMulRowsSweep(dst, a, b, i, rows)
	case rows == 1:
		matMulRow(dst, a, b, i)
	default:
		last := i + rows - 1
		matMulBlock4Cols(dst, a, b, i, i+1, min(i+2, last), last, 0)
	}
}

// checkMatMul panics unless dst = a*b is well-shaped.
func checkMatMul(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MatMul %d×%d by %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulInto dst %d×%d want %d×%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
}

// matMulBlock8 accumulates the eight output rows idx at once (indices
// may repeat for remainder padding). With AVX it runs 8×4
// register-accumulator tiles — each loaded b vector feeds eight rows;
// without AVX it falls back to two 4-row blocks.
// Bit-identical to the plain triple loop either way.
func matMulBlock8(dst, a, b *Dense, idx [8]int) {
	n := b.Cols
	m := a.Cols
	j := 0
	if useAVXGemm && m > 0 {
		a0, a1, a2, a3 := a.Row(idx[0]), a.Row(idx[1]), a.Row(idx[2]), a.Row(idx[3])
		a4, a5, a6, a7 := a.Row(idx[4]), a.Row(idx[5]), a.Row(idx[6]), a.Row(idx[7])
		d0, d1, d2, d3 := dst.Row(idx[0]), dst.Row(idx[1]), dst.Row(idx[2]), dst.Row(idx[3])
		d4, d5, d6, d7 := dst.Row(idx[4]), dst.Row(idx[5]), dst.Row(idx[6]), dst.Row(idx[7])
		for ; j+4 <= n; j += 4 {
			gemm8x4avx(m, &a0[0], &a1[0], &a2[0], &a3[0], &a4[0], &a5[0], &a6[0], &a7[0],
				&b.Data[j], n,
				&d0[j], &d1[j], &d2[j], &d3[j], &d4[j], &d5[j], &d6[j], &d7[j])
		}
		if j == n {
			return
		}
	}
	// Column remainder (or the whole span without AVX): two 4-row
	// passes over the leftover columns.
	matMulBlock4Cols(dst, a, b, idx[0], idx[1], idx[2], idx[3], j)
	matMulBlock4Cols(dst, a, b, idx[4], idx[5], idx[6], idx[7], j)
}

// matMulRow accumulates one output row: dst[i] += a[i] * b. Zero inputs
// are skipped — a pure optimization for sparse fingerprints: adding
// 0*b[k] is an exact no-op while b is finite, which nn.LoadParams
// enforces for every weight a bundle can carry. This is the lone row
// without AVX; matMulRowSweep is the same loop on the vector kernel.
func matMulRow(dst, a, b *Dense, i int) {
	n := b.Cols
	arow := a.Row(i)
	drow := dst.Row(i)
	for k, av := range arow {
		if av == 0 {
			continue
		}
		brow := b.Data[k*n : (k+1)*n]
		for j, bv := range brow {
			drow[j] += av * bv
		}
	}
}

// matMulRowSweep is matMulRow on the sweep kernel: the row's non-zero
// inputs are compacted four at a time, in ascending k, and each group
// is one left-to-right pass over its four b rows. The one to three
// inputs left at the end get a single-input sweep each — never a group
// padded with a live b row, whose 0*b product the scalar loop would not
// have formed.
func matMulRowSweep(dst, a, b *Dense, i int) {
	n := b.Cols
	if n == 0 {
		return
	}
	d := &dst.Data[i*n]
	var (
		av  [4]float64 // the group's inputs
		off [4]int     // and where their b rows start
		g   int
	)
	for k, v := range a.Row(i) {
		if v == 0 {
			continue
		}
		av[g], off[g] = v, k*n
		if g++; g == 4 {
			rowSweep4avx(n, d, &b.Data[off[0]], &b.Data[off[1]], &b.Data[off[2]], &b.Data[off[3]], &av[0])
			g = 0
		}
	}
	for l := 0; l < g; l++ {
		rowSweep1avx(n, d, &b.Data[off[l]], av[l])
	}
}

// matMulRowsSweep accumulates the two to four output rows [i, i+rows)
// on the sweep kernel, k groups outer and rows inner, so four b rows
// are fetched once and swept by every output row while they sit in L1;
// rows go in pairs that share each loaded b vector, an odd one alone.
// No zero skip: the rows' zeros do not line up.
func matMulRowsSweep(dst, a, b *Dense, i, rows int) {
	n, m := b.Cols, a.Cols
	if n == 0 {
		return
	}
	end := i + rows
	k := 0
	for ; k+4 <= m; k += 4 {
		b0, b1, b2, b3 := &b.Data[k*n], &b.Data[(k+1)*n], &b.Data[(k+2)*n], &b.Data[(k+3)*n]
		r := i
		for ; r+2 <= end; r += 2 {
			rowSweep4x2avx(n, &dst.Data[r*n], &dst.Data[(r+1)*n], b0, b1, b2, b3, &a.Data[r*m+k], &a.Data[(r+1)*m+k])
		}
		if r < end {
			rowSweep4avx(n, &dst.Data[r*n], b0, b1, b2, b3, &a.Data[r*m+k])
		}
	}
	for ; k < m; k++ {
		for r := i; r < end; r++ {
			rowSweep1avx(n, &dst.Data[r*n], &b.Data[k*n], a.Data[r*m+k])
		}
	}
}

// matMulBlock4Cols is the pure-Go four-row kernel over columns [j, n),
// k unrolled by four, so each loaded b element feeds four rows. Row
// indices may repeat (remainder padding): all four lanes read before any
// stores, like the assembly tiles' register accumulators, so duplicated
// lanes compute and store identical values instead of accumulating
// twice.
func matMulBlock4Cols(dst, a, b *Dense, r0, r1, r2, r3, j int) {
	n := b.Cols
	m := a.Cols
	a0, a1, a2, a3 := a.Row(r0), a.Row(r1), a.Row(r2), a.Row(r3)
	d0, d1, d2, d3 := dst.Row(r0), dst.Row(r1), dst.Row(r2), dst.Row(r3)
	k := 0
	for ; k+4 <= m; k += 4 {
		a00, a01, a02, a03 := a0[k], a0[k+1], a0[k+2], a0[k+3]
		a10, a11, a12, a13 := a1[k], a1[k+1], a1[k+2], a1[k+3]
		a20, a21, a22, a23 := a2[k], a2[k+1], a2[k+2], a2[k+3]
		a30, a31, a32, a33 := a3[k], a3[k+1], a3[k+2], a3[k+3]
		b0 := b.Data[k*n : (k+1)*n]
		b1 := b.Data[(k+1)*n : (k+2)*n]
		b2 := b.Data[(k+2)*n : (k+3)*n]
		b3 := b.Data[(k+3)*n : (k+4)*n]
		for jj := j; jj < n; jj++ {
			bv0, bv1, bv2, bv3 := b0[jj], b1[jj], b2[jj], b3[jj]
			// Per element, products accumulate in ascending-k order as
			// separate statements (no reassociation), matching
			// matMulRow and the assembly tiles exactly. All four lanes
			// read before any stores, like the assembly kernel's
			// register accumulators, so duplicated remainder lanes do
			// not double-accumulate.
			s0, s1, s2, s3 := d0[jj], d1[jj], d2[jj], d3[jj]
			s0 += a00 * bv0
			s0 += a01 * bv1
			s0 += a02 * bv2
			s0 += a03 * bv3
			s1 += a10 * bv0
			s1 += a11 * bv1
			s1 += a12 * bv2
			s1 += a13 * bv3
			s2 += a20 * bv0
			s2 += a21 * bv1
			s2 += a22 * bv2
			s2 += a23 * bv3
			s3 += a30 * bv0
			s3 += a31 * bv1
			s3 += a32 * bv2
			s3 += a33 * bv3
			d0[jj] = s0
			d1[jj] = s1
			d2[jj] = s2
			d3[jj] = s3
		}
	}
	for ; k < m; k++ {
		brow := b.Data[k*n : (k+1)*n]
		for jj := j; jj < n; jj++ {
			bv := brow[jj]
			s0 := d0[jj] + a0[k]*bv
			s1 := d1[jj] + a1[k]*bv
			s2 := d2[jj] + a2[k]*bv
			s3 := d3[jj] + a3[k]*bv
			d0[jj] = s0
			d1[jj] = s1
			d2[jj] = s2
			d3[jj] = s3
		}
	}
}

// MatMulATB returns aᵀ*b without materializing the transpose. a is r×m,
// b is r×n; the result is m×n. Used for weight gradients (xᵀ · dout).
func MatMulATB(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MatMulATB %d×%d by %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	n := b.Cols
	for r := 0; r < a.Rows; r++ {
		arow := a.Row(r)
		brow := b.Row(r)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulABT returns a*bᵀ without materializing the transpose. a is r×m,
// b is n×m; the result is r×n. Used for input gradients (dout · Wᵀ).
func MatMulABT(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MatMulABT %d×%d by %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// MulVec returns m*v for a length-Cols vector v.
func (m *Dense) MulVec(v []float64) []float64 {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: MulVec len %d want %d", len(v), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// Norm returns the Frobenius norm of m.
func (m *Dense) Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value in m (0 for empty).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports whether a and b have identical shape and every pair of
// elements differs by at most tol.
func Equal(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Dense(%d×%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Dense(%d×%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

func sameShape(op string, a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %d×%d vs %d×%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
