package mat

import "math"

// screenMaxKept caps the columns Screen.ArgMax recomputes in fp64 for
// one row. Each one is a strided walk down a column of the source; past
// a few dozen the row is cheaper on the fp64 row sweep, so ArgMax hands
// it back instead (class −1). On trained and random weights a row keeps
// about one column.
const screenMaxKept = 32

// screenPanelCols is the width of a screen panel: the eight fp32
// columns one YMM register holds.
const screenPanelCols = 8

// screenPadCols is the multiple of columns the panels are padded to with
// zero columns: the sixty-four one screenRows1avx32 call covers, so no
// kernel has a leftover path.
const screenPadCols = 64

// Screen is a read-only copy of a K×N weight matrix for finding the
// argmax of a·W + bias for each row a of a pass without reading W's
// fp64 bytes: W rounded to fp32 in eight-column panels, and the largest
// column sum C = max_j Σ_k |W_kj|, which bounds the fp32 scores' error.
// It exists for the class head, which streams 8·K·N bytes per pass in
// fp64 (2 MB at the perf shape's 256×1002, more than a core's L2); the
// fp32 panels are half that, and the fp32 kernels score eight columns
// per register where fp64 scores four.
//
// Panel p holds rows 0..K-1 of columns 8p..8p+7 contiguously (entry
// (k, 8p+c) at panels[(p*K+k)*8+c]), so every kernel walks k through
// sequential 32-byte steps. A pass's rows are scored four at a time, and
// the two or one left over after that, by the row kernels: they cover
// four, two or one rows over two, four or eight adjacent panels and load
// each panel vector once for all their rows. The columns are padded with
// zero columns to a multiple of screenPadCols, whose scores are never
// read.
//
// What it answers is exact, not approximate: ArgMax returns, for every
// row it answers, the index ArgMax(matMulReference(a, W) + bias)
// returns, bit for bit (see pick for the proof). It never returns a
// logit — the fp32 scores only decide which columns are worth computing
// in fp64. Like Packed it is a snapshot: it keeps a reference to the
// source, which ArgMax reads for the columns it recomputes, and owners
// drop it whenever the source changes (see nn.Param).
type Screen struct {
	src    *Dense
	cols   int       // N padded to a multiple of screenPadCols
	panels []float32 // W rounded to fp32, in panels; nil when no screen was built
	cMax   float64   // max_j Σ_k |src(k, j)|
}

// NewScreen builds the screen of w. Without the AVX kernels, for an
// empty w, or when a weight lies outside fp32's finite range (its fp32
// copy would be infinite, and the error bound with it) nothing is built:
// the Screen holds no copy and ArgMax answers nil.
func NewScreen(w *Dense) *Screen {
	s := &Screen{src: w}
	k, n := w.Rows, w.Cols
	if !useAVXGemm || k == 0 || n == 0 {
		return s
	}
	cols := (n + screenPadCols - 1) / screenPadCols * screenPadCols
	panels := make([]float32, k*cols)
	c := make([]float64, n) // the column sums
	for r := 0; r < k; r++ {
		for j, v := range w.Row(r) {
			if !(math.Abs(v) <= math.MaxFloat32) {
				return s
			}
			p, col := j/screenPanelCols, j%screenPanelCols
			panels[(p*k+r)*screenPanelCols+col] = float32(v)
			c[j] += math.Abs(v)
		}
	}
	s.cols, s.panels = cols, panels
	for _, cj := range c {
		s.cMax = max(s.cMax, cj)
	}
	return s
}

// Bytes reports the size of the screen (0 when none was built).
func (s *Screen) Bytes() int { return 4 * len(s.panels) }

// gamma is the classic rounding-error constant γ_k = k·u/(1 − k·u) for
// unit roundoff u: |fl(x) − x| ≤ γ_k·|x| for k chained roundings.
func gamma(k int, u float64) float64 {
	ku := float64(k) * u
	return ku / (1 - ku)
}

// screenTiny bounds the absolute error of one fp32 rounding near zero,
// whether the result is rounded to a subnormal (≤ 2⁻¹⁵⁰) or flushed to
// zero by an FTZ/DAZ floating-point mode (< 2⁻¹²⁶): the bound holds in
// either mode.
const screenTiny = 0x1p-126

// ArgMax returns, for each row a of x, ArgMax(a·W + bias) exactly as
// the fp64 path computes it — the index mat.ArgMax returns on
// matMulReference(a, W) + bias, the first of equal maxima — or −1 for a
// row the screen cannot answer, whose caller must run the fp64 product
// for it: a is not finite or exceeds fp32's range, a score or bias is
// not finite, or more than screenMaxKept columns survive the screen (see
// pick). It returns nil when no screen was built. x must have K columns
// and len(bias) must be N. Rows are independent: what one row holds
// never changes another's answer.
func (s *Screen) ArgMax(x *Dense, bias []float64) []int {
	k, n := s.src.Rows, s.src.Cols
	if x.Cols != k || len(bias) != n {
		panic("mat: Screen.ArgMax operand shapes do not match the screened matrix")
	}
	if s.panels == nil {
		return nil
	}
	rows := x.Rows
	classes := make([]int, rows)
	alpha := make([]float64, rows)
	a32 := make([]float32, rows*k)
	for i := range rows {
		var ok bool
		if alpha[i], ok = toFP32(a32[i*k:(i+1)*k], x.Row(i)); !ok {
			clear(a32[i*k : (i+1)*k])
			classes[i] = -1
		}
	}
	scores := make([]float32, rows*s.cols)
	s.score(scores, a32, rows)
	var bMax float64
	for _, b := range bias {
		if b := math.Abs(b); b > bMax {
			bMax = b
		}
	}
	for i := range rows {
		if classes[i] >= 0 { // toFP32 refused the rows at −1
			classes[i] = s.pick(scores[i*s.cols:i*s.cols+n], x.Row(i), bias, s.bound(alpha[i], bMax))
		}
	}
	return classes
}

// bound is E, the bound on every column's |s_j − L_j| for a row with
// α = max_k |a_k| and a bias with max_j |b_j| = bMax (see pick):
//
//	E = 2·[γ₃₂(m+3)·α·C + γ₆₄(m+2)·(α·C + bMax) + η·(m·α + C + 3m)].
func (s *Screen) bound(alpha, bMax float64) float64 {
	m, c := float64(s.src.Rows), s.cMax
	g32, g64 := gamma(s.src.Rows+3, 0x1p-24), gamma(s.src.Rows+2, 0x1p-53)
	return 2 * (g32*alpha*c + g64*(alpha*c+bMax) + screenTiny*(m*alpha+c+3*m))
}

// toFP32 rounds a into dst and returns α = max_k |a_k|, or ok false when
// some a_k is not finite or would not fit in fp32.
func toFP32(dst []float32, a []float64) (alpha float64, ok bool) {
	for k, v := range a {
		abs := math.Abs(v)
		if !(abs <= math.MaxFloat32) {
			return 0, false
		}
		if abs > alpha {
			alpha = abs
		}
		dst[k] = float32(v)
	}
	return alpha, true
}

// score fills row i of scores (rows × s.cols) with the fp32 product of
// row i of a (rows × K) and the panels: four rows per call, then two,
// then one. Each call walks the whole head once. An 8-row register tile
// over one panel, which reads the head once per pass, did not beat the
// 4-row kernel: scoring the perf shape's fine head (256×1002) on one
// core of a 2-vCPU Xeon VM (BenchmarkScreenScore, five runs each, µs),
// 8 rows took 74–110 on the tile against 70–91 on two 4-row calls,
// 16 rows 148–208 against 152–214, and 32 rows 435–512 against 291–434.
func (s *Screen) score(scores, a []float32, rows int) {
	k, w := s.src.Rows, s.cols
	stride := 4 * screenPanelCols * k // bytes from one panel to the next
	ar := func(i int) *float32 { return &a[i*k] }
	d := func(i, j int) *float32 { return &scores[i*w+j] }
	panel := func(j int) *float32 { return &s.panels[j*k] }
	i := 0
	for ; rows-i >= 4; i += 4 {
		for j := 0; j < w; j += 2 * screenPanelCols {
			screenRows4avx32(k, ar(i), ar(i+1), ar(i+2), ar(i+3), panel(j), stride,
				d(i, j), d(i+1, j), d(i+2, j), d(i+3, j))
		}
	}
	for ; rows-i >= 2; i += 2 {
		for j := 0; j < w; j += 4 * screenPanelCols {
			screenRows2avx32(k, ar(i), ar(i+1), panel(j), stride, d(i, j), d(i+1, j))
		}
	}
	for ; i < rows; i++ {
		for j := 0; j < w; j += 8 * screenPanelCols {
			screenRows1avx32(k, ar(i), panel(j), stride, d(i, j))
		}
	}
}

// pick is ArgMax's answer for one row a with fp32 scores S_j (scores,
// N long) under the bound e (bound): the class, or −1 when a score plus
// its bias is not finite or more than screenMaxKept columns survive.
//
// How. Every column gets an fp32 score S_j (a and W rounded to fp32,
// products and sums in fp32, in ascending k from zero) and a score
// s_j = S_j + b_j in fp64. With L_j the fp64 logit and E ≥ |s_j − L_j|
// for every j, every column with s_j ≥ max_i s_i − 2E is kept and
// recomputed exactly — fp64, ascending k, un-fused, plus the bias, which
// is matMulReference's arithmetic and so L_j's bits — and the first
// maximum among the kept columns is returned.
//
// Why that is L's first argmax j*. With i the column of the largest
// score, s_j* ≥ L_j* − E ≥ L_i − E ≥ s_i − 2E, so j* is kept; in
// floating point too, because 2E is exact, s_j* is an fp64 number and
// rounding is monotone, so s_j* ≥ fl(s_i − 2E). A kept column before j*
// has a smaller logit than j* (j* is the first maximum) and one after it
// no larger, so the first maximum among the kept columns is j*.
//
// The bound. Let m = K, α = max_k |a_k| and C_j = Σ_k |W_kj|, so
// Σ_k |a_k·W_kj| ≤ α·C_j; write D_j = Σ_k a_k·W_kj exactly and
// u₃₂ = 2⁻²⁴, u₆₄ = 2⁻⁵³, η = 2⁻¹²⁶ (screenTiny). Each fp32 rounding
// is x(1+δ) + e with |δ| ≤ u₃₂ and |e| ≤ η.
//   - fp32 rounding, relative: a term a_k·W_kj passes through the
//     rounding of a_k, of W_kj, of the product and of at most m − 1
//     partial sums (the first add, to zero, is exact), so these
//     contribute at most γ₃₂(m+2)·α·C_j.
//   - fp32 underflow, absolute: the e of a_k's rounding is multiplied by
//     |W_kj| (C_j over all k), that of W_kj by |a_k| (m·α), the
//     product's and each sum's add η (2m), all times (1+γ₃₂(m+1)) plus
//     m·η² — under η·(m·α + C_j + 3m) in total. So
//     |S_j − D_j| ≤ γ₃₂(m+2)·α·C_j + η·(m·α + C_j + 3m).
//   - the fp64 path: L_j = fl(fl(dot) + b_j) is m products and sums and
//     the bias add, |L_j − (D_j + b_j)| ≤ γ₆₄(m+1)·(α·C_j + |b_j|) (its
//     underflow, m·2⁻¹⁰⁷⁵ at most, is inside the η term), and s_j's own
//     bias add costs one more u₆₄·|S_j + b_j|.
//
// Adding up, with the spare (1+u) factors folded into γ₃₂(m+3) and
// γ₆₄(m+2),
//
//	|s_j − L_j| ≤ γ₃₂(m+3)·α·C_j + γ₆₄(m+2)·(α·C_j + |b_j|) + η·(m·α + C_j + 3m),
//
// which grows with C_j and |b_j|, so twice its value at C = max_j C_j
// and max_j |b_j| bounds every column: that is E. The factor of 2 covers
// what the derivation does not: C and E are themselves computed in fp64
// (a few dozen roundings of relative size u₆₄ at most), and the (1+γ)
// cross terms. One E for the whole row, rather than one per column,
// kept as few columns in measurement (1.005 a row over 20,000 random
// perf-shape rows, 1.000 over a trained head's 432 test rows) and makes
// the two passes below a compare each.
func (s *Screen) pick(scores []float32, a, bias []float64, e float64) int {
	sMax := math.Inf(-1)
	for j, sc := range scores {
		sj := float64(sc) + bias[j]
		if !(math.Abs(sj) <= math.MaxFloat64) {
			return -1
		}
		if sj > sMax {
			sMax = sj
		}
	}
	cut := sMax - 2*e
	best, bestLogit, kept := -1, 0.0, 0
	for j, sc := range scores {
		if float64(sc)+bias[j] < cut {
			continue
		}
		if kept++; kept > screenMaxKept {
			return -1
		}
		if logit := s.logit(a, bias, j); best < 0 || logit > bestLogit {
			best, bestLogit = j, logit
		}
	}
	return best
}

// logit is column j's fp64 logit as the fp64 path computes it: the
// un-fused products a_k·W_kj added in ascending k from zero, then the
// bias (matMulReference, then the bias add). The conversion keeps the
// compiler from fusing a product into the add on any target.
func (s *Screen) logit(a, bias []float64, j int) float64 {
	n := s.src.Cols
	var d float64
	for k, v := range a {
		d += float64(v * s.src.Data[k*n+j])
	}
	return d + bias[j]
}
