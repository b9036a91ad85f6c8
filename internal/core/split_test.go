package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noble/internal/dataset"
	"noble/internal/nn/qlinear"
	"noble/internal/quantize"
)

// splitPassRows straddle passChunkRows and its multiples: one chunk,
// one chunk and a row, two, two and a row, three, four.
var splitPassRows = []int{1, 8, 15, 16, 17, 31, 32, 33, 48, 64}

// withGOMAXPROCS runs f with GOMAXPROCS set to procs, restoring it after.
func withGOMAXPROCS(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// splitPassModels are the three serving paths a pass can take: fp64 over
// row-major weights, fp64 over the packed copy, and the int8 mirror.
func splitPassModels(t *testing.T, ds *dataset.WiFi) map[string]*WiFiModel {
	t.Helper()
	packed := untrainedWiFi(ds, 1)
	packed.PackWeights()
	int8m := untrainedWiFi(ds, 1)
	if err := int8m.EnableInt8(&qlinear.Calibrator{Method: qlinear.CalibAbsMax}, dataset.FeaturesMatrix(ds.Val)); err != nil {
		t.Fatal(err)
	}
	return map[string]*WiFiModel{"fp64": untrainedWiFi(ds, 1), "fp64 packed": packed, "int8": int8m}
}

// A pass split into row chunks answers every row exactly as a one-row
// Predict does — Class, Pos, Building and Floor — on every serving path,
// with one core and with two.
func TestSplitPassMatchesOneCore(t *testing.T) {
	ds := tinyWiFi()
	for name, m := range splitPassModels(t, ds) {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", name, procs), func(t *testing.T) {
				withGOMAXPROCS(procs, func() {
					for _, n := range splitPassRows {
						x := testFingerprints(ds, n)
						for i, got := range m.PredictMatrix(x) {
							if want := m.Predict(x.Row(i)); got != want {
								t.Fatalf("%d rows, row %d: pass %+v != Predict %+v", n, i, got, want)
							}
						}
					}
				})
			})
		}
	}
}

// Eight callers splitting passes on one model at once (run under -race):
// each gets the answers a lone caller gets.
func TestSplitPassConcurrentCallers(t *testing.T) {
	ds := tinyWiFi()
	for name, m := range splitPassModels(t, ds) {
		t.Run(name, func(t *testing.T) {
			withGOMAXPROCS(2, func() {
				x := testFingerprints(ds, 48)
				want := m.PredictMatrix(x)
				const callers = 8
				got := make([][]WiFiPrediction, callers)
				var wg sync.WaitGroup
				start := make(chan struct{})
				for g := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						got[g] = m.PredictMatrix(x)
					}()
				}
				close(start)
				wg.Wait()
				for g := range got {
					for i := range want {
						if got[g][i] != want[i] {
							t.Fatalf("caller %d, row %d: %+v != %+v", g, i, got[g][i], want[i])
						}
					}
				}
			})
		})
	}
}

// recoverPanic calls f and returns the value it panicked with, or nil.
func recoverPanic(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// A panic in a chunk a helper runs is recovered on the helper — an
// unrecovered one would end the test binary — and re-raised on the
// caller. Whichever goroutine enters a chunk first holds it until a
// second chunk has been entered, which only another goroutine can do, so
// both a helper and the caller run a chunk, and every chunk panics.
func TestSplitPassHelperPanicSurfacesOnCaller(t *testing.T) {
	withGOMAXPROCS(2, func() {
		var entered atomic.Int32
		second := make(chan struct{})
		helperRan := false
		p := recoverPanic(func() {
			splitPass(2*passChunkRows, passChunkRows, func(lo, hi int) {
				if entered.Add(1) == 1 {
					select {
					case <-second:
						helperRan = true
					case <-time.After(10 * time.Second):
					}
				} else {
					close(second)
				}
				panic(fmt.Sprintf("chunk %d", lo/passChunkRows))
			})
		})
		if !helperRan {
			t.Fatal("no second goroutine entered a chunk: no helper ran")
		}
		if p != "chunk 0" {
			t.Fatalf("caller saw panic %v, want the first chunk's, %q", p, "chunk 0")
		}
	})
}

// Through the model: a fine head wider than its codebook makes every
// chunk's decode index past the codebook's end, and a 64-row pass at the
// perf shape (four chunks long enough for a helper to claim some)
// surfaces that as a panic on the caller.
func TestSplitPassPredictMatrixPanicSurfacesOnCaller(t *testing.T) {
	m := perfShapeWiFi()
	m.Grids = &quantize.MultiRes{Fine: new(quantize.Grid), Coarse: m.Grids.Coarse}
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = make([]float64, m.InputDim())
	}
	withGOMAXPROCS(2, func() {
		p := recoverPanic(func() { m.PredictBatch(rows) })
		var rerr runtime.Error
		if err, ok := p.(error); !ok || !errors.As(err, &rerr) {
			t.Fatalf("PredictBatch panicked with %v, want the decode's runtime error", p)
		}
	})
}
