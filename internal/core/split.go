package core

import (
	"runtime"
	"sync/atomic"
)

// passChunkRows is the row count of one chunk of a split forward pass
// (splitPass). At the perf shape, trunk packed and fine class screened
// as serve builds them, one core runs 8, 16, 24 and 32 rows in 368, 722,
// 984 and 1410 µs — 41–46 µs a row at every size — and on two cores a
// 32-row pass takes 869 µs as two 16-row chunks and 870 µs as four 8-row
// ones. 8-row chunks would also split 9–16-row passes (16 rows: 422 µs
// on two cores against 700 as one chunk), but the sizes above 8 cost
// −2 to +5 % CPU a row on one core as 8-row chunks
// (BenchmarkWiFiPredictRows{8,16,24,32}, medians of five -cpu 1,2 runs
// alternating with a passChunkRows = 8 build, on a 2-vCPU Xeon VM). At
// 16, a lone device's passes and an open-loop fleet's (1.4 rows on
// average at 2000 fingerprints/s) are one chunk and run exactly the
// one-core code. Splitting those short passes does not pay either: a
// prototype that split each Dense layer's columns across two cores on
// this file's pattern saw its helper run 103 of 10,000 chunks and the
// pass get no faster — a goroutine started toward the idle second vCPU
// began after 62 µs at p10 and ~2 ms at the median, longer than a whole
// lone pass.
const passChunkRows = 16

// splitPass runs run over the rows [0, n) of one forward pass in chunks
// of chunk rows, each chunk's [lo, hi) once, on the calling goroutine and
// up to GOMAXPROCS−1 helper goroutines that claim chunks from one atomic
// counter. Rows are independent and every kernel answers a row the same
// whatever rows share its pass (DESIGN.md §2), so the split changes where
// a row is computed and never its answer.
//
// A pass of at most one chunk, or any pass with GOMAXPROCS 1, is one
// run(0, n) on the caller. Otherwise the caller returns once the last
// chunk has finished, not once the helpers have exited: a helper the
// runtime has not yet woken finds nothing left to claim and exits, so on
// a busy host the pass degrades to the caller doing every chunk itself.
//
// A panic in any chunk is recovered where it happens, so one in a helper
// cannot take the process down outside the caller's recover, and the
// first chunk's panic value is re-raised on the caller after the pass.
func splitPass(n, chunk int, run func(lo, hi int)) {
	chunks := (n + chunk - 1) / chunk
	helpers := min(runtime.GOMAXPROCS(0), chunks) - 1
	if helpers <= 0 {
		run(0, n)
		return
	}
	var next, finished atomic.Int32
	panics := make([]any, chunks)
	lastDone := make(chan struct{})
	work := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			func() {
				defer func() { panics[c] = recover() }()
				run(c*chunk, min((c+1)*chunk, n))
			}()
			if int(finished.Add(1)) == chunks {
				close(lastDone)
			}
		}
	}
	for range helpers {
		go work()
	}
	work()
	<-lastDone
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
