package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	FillNormal(m, rng, 0, 1)
	return m
}

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %d×%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1,2) should panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceOwnership(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	m := FromSlice(2, 2, data)
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0)=%v want 3", m.At(1, 0))
	}
	m.Set(1, 0, 9)
	if data[2] != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSliceBadLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows wrong: %v", m)
	}
}

func TestFromRowsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d,%d]=%v", i, j, id.At(i, j))
			}
		}
	}
}

func TestRowIsView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Row(1)[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("Row must be a mutable view")
	}
}

func TestColIsCopy(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(0)
	c[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Col must copy")
	}
	if c[1] != 3 {
		t.Fatalf("Col(0)=%v", c)
	}
}

func TestSetRow(t *testing.T) {
	m := New(2, 3)
	m.SetRow(1, []float64{7, 8, 9})
	if m.At(1, 2) != 9 {
		t.Fatal("SetRow failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must deep copy")
	}
}

func TestReshapeSharesData(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3, 4}})
	r := m.Reshape(2, 2)
	r.Set(1, 1, 9)
	if m.At(0, 3) != 9 {
		t.Fatal("Reshape must share backing data")
	}
}

func TestReshapeBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Reshape(3, 2)
}

func TestTransposeKnown(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose wrong: %v", tr)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	rng := NewRand(1)
	f := func(r8, c8 uint8) bool {
		r, c := int(r8%6)+1, int(c8%6)+1
		m := randomDense(rng, r, c)
		return Equal(m.T().T(), m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MatMul=%v want %v", got, want)
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	rng := NewRand(2)
	f := func(r8, c8 uint8) bool {
		r, c := int(r8%6)+1, int(c8%6)+1
		m := randomDense(rng, r, c)
		return Equal(MatMul(m, Identity(c)), m, 1e-12) &&
			Equal(MatMul(Identity(r), m), m, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	rng := NewRand(3)
	f := func(n8 uint8) bool {
		n := int(n8%5) + 1
		a, b, c := randomDense(rng, n, n), randomDense(rng, n, n), randomDense(rng, n, n)
		left := MatMul(Add(a, b), c)
		right := Add(MatMul(a, c), MatMul(b, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulATBMatchesExplicitTranspose(t *testing.T) {
	rng := NewRand(4)
	a := randomDense(rng, 5, 3)
	b := randomDense(rng, 5, 4)
	got := MatMulATB(a, b)
	want := MatMul(a.T(), b)
	if !Equal(got, want, 1e-10) {
		t.Fatal("MatMulATB disagrees with aᵀ·b")
	}
}

func TestMatMulABTMatchesExplicitTranspose(t *testing.T) {
	rng := NewRand(5)
	a := randomDense(rng, 5, 3)
	b := randomDense(rng, 4, 3)
	got := MatMulABT(a, b)
	want := MatMul(a, b.T())
	if !Equal(got, want, 1e-10) {
		t.Fatal("MatMulABT disagrees with a·bᵀ")
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	got := m.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec=%v", got)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	if got := Add(a, b); got.At(1, 1) != 44 {
		t.Fatalf("Add=%v", got)
	}
	if got := Sub(b, a); got.At(0, 0) != 9 {
		t.Fatalf("Sub=%v", got)
	}
	if got := MulElem(a, b); got.At(1, 0) != 90 {
		t.Fatalf("MulElem=%v", got)
	}
	c := a.Clone()
	c.AxpyInPlace(2, b)
	if c.At(0, 1) != 42 {
		t.Fatalf("Axpy=%v", c)
	}
	c.Scale(0.5)
	if c.At(0, 1) != 21 {
		t.Fatalf("Scale=%v", c)
	}
	c.Fill(7)
	if c.At(1, 1) != 7 {
		t.Fatal("Fill failed")
	}
	c.Zero()
	if c.Norm() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestApplyAndMap(t *testing.T) {
	m := FromRows([][]float64{{1, 4}, {9, 16}})
	sq := m.Map(math.Sqrt)
	if sq.At(1, 1) != 4 {
		t.Fatalf("Map=%v", sq)
	}
	if m.At(1, 1) != 16 {
		t.Fatal("Map must not mutate receiver")
	}
	m.Apply(func(x float64) float64 { return -x })
	if m.At(0, 0) != -1 {
		t.Fatal("Apply failed")
	}
}

func TestAddRowVecAndSumRows(t *testing.T) {
	m := New(3, 2)
	m.AddRowVec([]float64{1, 2})
	s := m.SumRows()
	if s[0] != 3 || s[1] != 6 {
		t.Fatalf("SumRows=%v", s)
	}
}

func TestNormAndMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{3, -4}})
	if !almostEqual(m.Norm(), 5, 1e-12) {
		t.Fatalf("Norm=%v", m.Norm())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs=%v", m.MaxAbs())
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(New(2, 2), New(2, 3), 1) {
		t.Fatal("different shapes must not be Equal")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromRows([][]float64{{1, 2}})
	if small.String() == "" {
		t.Fatal("String empty")
	}
	large := New(20, 20)
	if large.String() != "Dense(20×20)" {
		t.Fatalf("large String=%q", large.String())
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-10) || !almostEqual(x[1], 3, 1e-10) {
		t.Fatalf("Solve=%v want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system must error")
	}
}

func TestSolveNonSquare(t *testing.T) {
	if _, err := SolveMulti(New(2, 3), New(2, 1)); err == nil {
		t.Fatal("non-square must error")
	}
	if _, err := SolveMulti(New(2, 2), New(3, 1)); err == nil {
		t.Fatal("rhs mismatch must error")
	}
}

func TestSolveRoundTripProperty(t *testing.T) {
	rng := NewRand(6)
	f := func(n8 uint8) bool {
		n := int(n8%6) + 2
		a := randomDense(rng, n, n)
		// Diagonal dominance guarantees well-conditioned systems.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMultiAgainstSingle(t *testing.T) {
	rng := NewRand(7)
	a := randomDense(rng, 4, 4)
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+6)
	}
	b1 := []float64{1, 2, 3, 4}
	b2 := []float64{-1, 0, 1, 2}
	rhs := New(4, 2)
	for i := 0; i < 4; i++ {
		rhs.Set(i, 0, b1[i])
		rhs.Set(i, 1, b2[i])
	}
	multi, err := SolveMulti(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	x1, _ := Solve(a, b1)
	x2, _ := Solve(a, b2)
	for i := 0; i < 4; i++ {
		if !almostEqual(multi.At(i, 0), x1[i], 1e-9) || !almostEqual(multi.At(i, 1), x2[i], 1e-9) {
			t.Fatal("SolveMulti disagrees with Solve")
		}
	}
}

func TestSolveRegularized(t *testing.T) {
	// Singular matrix becomes solvable after damping.
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	x, err := SolveRegularized(a, []float64{2, 2}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], x[1], 1e-9) {
		t.Fatalf("regularized solution should be symmetric, got %v", x)
	}
}

func TestSolvePreservesInputs(t *testing.T) {
	a := FromRows([][]float64{{4, 1}, {1, 3}})
	orig := a.Clone()
	b := []float64{1, 2}
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if !Equal(a, orig, 0) {
		t.Fatal("Solve must not modify A")
	}
	if b[0] != 1 || b[1] != 2 {
		t.Fatal("Solve must not modify b")
	}
}

func TestEigSymDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 3, 1e-10) || !almostEqual(vals[1], 1, 1e-10) {
		t.Fatalf("vals=%v", vals)
	}
	if !almostEqual(math.Abs(vecs.At(0, 0)), 1, 1e-10) {
		t.Fatalf("vecs=%v", vecs)
	}
}

func TestEigSymKnown2x2(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, _, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 3, 1e-10) || !almostEqual(vals[1], 1, 1e-10) {
		t.Fatalf("vals=%v want [3 1]", vals)
	}
}

func TestEigSymReconstructionProperty(t *testing.T) {
	rng := NewRand(8)
	f := func(n8 uint8) bool {
		n := int(n8%6) + 2
		b := randomDense(rng, n, n)
		a := Add(b, b.T()) // symmetric
		vals, vecs, err := EigSym(a)
		if err != nil {
			return false
		}
		// Reconstruct V·D·Vᵀ.
		vd := vecs.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				vd.Set(i, j, vd.At(i, j)*vals[j])
			}
		}
		recon := MatMulABT(vd, vecs)
		return Equal(recon, a, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEigSymOrthonormalVectors(t *testing.T) {
	rng := NewRand(9)
	b := randomDense(rng, 6, 6)
	a := Add(b, b.T())
	_, vecs, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	gram := MatMulATB(vecs, vecs)
	if !Equal(gram, Identity(6), 1e-8) {
		t.Fatal("eigenvectors are not orthonormal")
	}
}

func TestEigSymNonSquare(t *testing.T) {
	if _, _, err := EigSym(New(2, 3)); err == nil {
		t.Fatal("non-square must error")
	}
}

func TestTopEig(t *testing.T) {
	a := FromRows([][]float64{{5, 0, 0}, {0, 2, 0}, {0, 0, 1}})
	vals, vecs, err := TopEig(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vecs.Cols != 2 {
		t.Fatalf("TopEig shape vals=%d vecs=%d×%d", len(vals), vecs.Rows, vecs.Cols)
	}
	if !almostEqual(vals[0], 5, 1e-10) || !almostEqual(vals[1], 2, 1e-10) {
		t.Fatalf("vals=%v", vals)
	}
}

func TestTopEigClampsK(t *testing.T) {
	a := Identity(2)
	vals, _, err := TopEig(a, 10)
	if err != nil || len(vals) != 2 {
		t.Fatalf("TopEig clamp: vals=%v err=%v", vals, err)
	}
}

func TestStatsMeanStdMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean=%v", Mean(xs))
	}
	if !almostEqual(Std(xs), math.Sqrt(1.25), 1e-12) {
		t.Fatalf("Std=%v", Std(xs))
	}
	if Median(xs) != 2.5 {
		t.Fatalf("Median=%v", Median(xs))
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd-length median")
	}
}

func TestStatsEmpty(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || Median(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Fatal("empty-slice stats must be 0")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("ArgMax(nil) must be -1")
	}
}

func TestPercentileBounds(t *testing.T) {
	xs := []float64{10, 20, 30}
	if Percentile(xs, 0) != 10 || Percentile(xs, 100) != 30 {
		t.Fatal("percentile bounds")
	}
	if Percentile(xs, 50) != 20 {
		t.Fatalf("p50=%v", Percentile(xs, 50))
	}
	if got := Percentile(xs, 25); !almostEqual(got, 15, 1e-12) {
		t.Fatalf("p25=%v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile must not sort in place")
	}
}

func TestArgMaxTies(t *testing.T) {
	if ArgMax([]float64{1, 3, 3, 2}) != 1 {
		t.Fatal("ArgMax must pick earliest on tie")
	}
}

func TestTopK(t *testing.T) {
	got := TopK([]float64{5, 1, 9, 7}, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("TopK=%v", got)
	}
	if len(TopK([]float64{1}, 5)) != 1 {
		t.Fatal("TopK must clamp k")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax=(%v,%v)", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatal("MinMax(nil)")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("NewRand must be deterministic per seed")
		}
	}
}

func TestFillNormalStats(t *testing.T) {
	rng := NewRand(10)
	m := New(200, 50)
	FillNormal(m, rng, 2, 0.5)
	mean := Mean(m.Data)
	std := Std(m.Data)
	if !almostEqual(mean, 2, 0.05) {
		t.Fatalf("FillNormal mean=%v", mean)
	}
	if !almostEqual(std, 0.5, 0.05) {
		t.Fatalf("FillNormal std=%v", std)
	}
}

func TestFillUniformRange(t *testing.T) {
	rng := NewRand(11)
	m := New(100, 10)
	FillUniform(m, rng, -2, 3)
	lo, hi := MinMax(m.Data)
	if lo < -2 || hi >= 3 {
		t.Fatalf("FillUniform out of range [%v,%v)", lo, hi)
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewRand(12)
	p := Perm(rng, 20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestMatMulBlockedMatchesReferenceBitForBit(t *testing.T) {
	// The serving layer promises a micro-batched request gets the exact
	// answer it would have gotten alone, so every MatMul path — the
	// lone-row kernels with their zero skip, the row sweep, the pure-Go
	// 4-row block and the AVX tiles — must agree with the plain triple
	// loop (matMulReference) to the last bit. Shapes cover all tile
	// remainders (rows % 8, cols % 8, odd inner dims).
	rng := NewRand(77)
	for _, shape := range [][3]int{
		{1, 7, 9}, {2, 9, 12}, {3, 8, 8}, {4, 16, 24}, {5, 13, 17}, {6, 8, 16}, {7, 12, 9}, {8, 10, 11}, {9, 6, 13}, {11, 5, 21}, {12, 16, 30},
		{32, 60, 129}, {33, 31, 40}, {64, 128, 201},
	} {
		r, m, n := shape[0], shape[1], shape[2]
		a := New(r, m)
		b := New(m, n)
		FillNormal(a, rng, 0, 1)
		FillNormal(b, rng, 0, 1)
		// Sparsify a to exercise the zero-skip path.
		for i := range a.Data {
			if i%3 == 0 {
				a.Data[i] = 0
			}
		}
		got := MatMul(a, b)
		want := matMulReference(a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape %v: element %d differs: %v != %v (kernels must be bit-identical)",
					shape, i, got.Data[i], want.Data[i])
			}
		}
	}
}
