package mat

// PackedMinRows is the smallest batch Packed.MulInto runs over the
// panels; smaller batches take MatMulInto's kernels over the row-major
// source. It is the row count at which MatMulInto itself switches to the
// 8×4 tile, so a caller deciding whether packing is worth its memory
// (serve, on the first pass this large) asks the same question the
// kernel does.
const PackedMinRows = 5

// panelCols is the panel width: the four columns one gemm8x4avx tile
// covers.
const panelCols = 4

// Packed is a read-only copy of a K×N weight matrix laid out for batched
// fp64 inference — the fp64 sibling of QMat. Columns are grouped into
// N/4 panels of four; panel p holds rows 0..K-1 of columns 4p..4p+3
// contiguously (entry (k, 4p+c) at panels[(p*K+k)*4+c]), so the 8×4 tile
// sweeps k through one 32·K-byte sequential run instead of striding a
// whole row of the source per step. The N%4 leftover columns are not
// copied; they and every fallback read the row-major source, which the
// Packed keeps a reference to.
//
// The arithmetic is MatMulInto's, element for element: the same tiles
// accumulate the same un-fused products in the same ascending-k order,
// only the address each b value is loaded from differs. A Packed is a
// snapshot — it does not follow later writes to the source — so owners
// drop it whenever the source changes (see nn.Param).
type Packed struct {
	src    *Dense
	panels []float64 // nil when nothing was packed (no AVX, K = 0, N < 4)
}

// Pack copies b's full four-column panels. Without the AVX tiles there
// is no kernel to read them, so nothing is copied and MulInto is
// MatMulInto over b.
func Pack(b *Dense) *Packed {
	p := &Packed{src: b}
	k, n := b.Rows, b.Cols
	full := n / panelCols * panelCols
	if !useAVXGemm || k == 0 || full == 0 {
		return p
	}
	p.panels = make([]float64, k*full)
	for j := 0; j < full; j += panelCols {
		panel := p.panels[j*k : (j+panelCols)*k]
		for r := 0; r < k; r++ {
			copy(panel[r*panelCols:(r+1)*panelCols], b.Data[r*n+j:r*n+j+panelCols])
		}
	}
	return p
}

// Bytes reports the size of the packed copy (0 when nothing was packed).
func (p *Packed) Bytes() int { return 8 * len(p.panels) }

// MulInto computes dst = a*b for the packed b, overwriting dst, with
// MatMulInto's shape rules and bit-for-bit its result. Batches of
// PackedMinRows or more run panel-outer, row-block-inner: one panel (8 KB
// at K = 256) stays in L1 while every 8-row block of a passes over it,
// so b is read once, sequentially, per call. The last block repeats its
// final row into the spare lanes, as in MatMulInto.
func (p *Packed) MulInto(dst, a *Dense) {
	b := p.src
	if p.panels == nil || a.Rows < PackedMinRows {
		MatMulInto(dst, a, b)
		return
	}
	checkMatMul(dst, a, b)
	dst.Zero()
	k, n, rows := b.Rows, b.Cols, a.Rows
	full := n / panelCols * panelCols
	row := func(i, l int) int { return min(i+l, rows-1) }
	for j := 0; j < full; j += panelCols {
		panel := &p.panels[j*k]
		for i := 0; i < rows; i += 8 {
			r0, r1, r2, r3 := row(i, 0), row(i, 1), row(i, 2), row(i, 3)
			r4, r5, r6, r7 := row(i, 4), row(i, 5), row(i, 6), row(i, 7)
			gemm8x4avx(k,
				&a.Data[r0*k], &a.Data[r1*k], &a.Data[r2*k], &a.Data[r3*k],
				&a.Data[r4*k], &a.Data[r5*k], &a.Data[r6*k], &a.Data[r7*k],
				panel, panelCols,
				&dst.Data[r0*n+j], &dst.Data[r1*n+j], &dst.Data[r2*n+j], &dst.Data[r3*n+j],
				&dst.Data[r4*n+j], &dst.Data[r5*n+j], &dst.Data[r6*n+j], &dst.Data[r7*n+j])
		}
	}
	if full == n {
		return
	}
	// Leftover columns: the pure-Go four-row kernel over the source, as in
	// MatMulInto. It accumulates into dst, so a row may appear in one call
	// only — duplicates pad within a call, never across two.
	for i := 0; i < rows; i += 4 {
		matMulBlock4Cols(dst, a, b, row(i, 0), row(i, 1), row(i, 2), row(i, 3), full)
	}
}
