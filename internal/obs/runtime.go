package obs

import (
	"io"
	"runtime"
	"time"
)

// RuntimeSnapshot is the process runtime view for /debug/runtime: the
// numbers an operator wants next to a latency regression — is the heap
// growing, is GC pausing the world, are goroutines leaking.
type RuntimeSnapshot struct {
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	HeapObjects    uint64  `json:"heap_objects"`
	StackSysBytes  uint64  `json:"stack_sys_bytes"`
	NumGC          uint32  `json:"num_gc"`
	GCPauseTotalMs float64 `json:"gc_pause_total_ms"`
	GCLastPauseMs  float64 `json:"gc_last_pause_ms"`
	GCCPUFraction  float64 `json:"gc_cpu_fraction"`
	NextGCBytes    uint64  `json:"next_gc_bytes"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
}

// processStart anchors the uptime gauge.
var processStart = time.Now()

// ReadRuntime captures the current runtime state. ReadMemStats stops
// the world briefly, so this belongs on scrape/debug paths, never per
// request.
func ReadRuntime() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var lastPause uint64
	if ms.NumGC > 0 {
		lastPause = ms.PauseNs[(ms.NumGC+255)%256]
	}
	return RuntimeSnapshot{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		HeapObjects:    ms.HeapObjects,
		StackSysBytes:  ms.StackSys,
		NumGC:          ms.NumGC,
		GCPauseTotalMs: float64(ms.PauseTotalNs) / 1e6,
		GCLastPauseMs:  float64(lastPause) / 1e6,
		GCCPUFraction:  ms.GCCPUFraction,
		NextGCBytes:    ms.NextGC,
		UptimeSeconds:  time.Since(processStart).Seconds(),
	}
}

// WriteRuntimePrometheus renders the runtime gauges in the Prometheus
// text exposition format, for the /metrics endpoint.
func WriteRuntimePrometheus(w io.Writer) {
	s := ReadRuntime()
	Single(w, "noble_goroutines", "gauge", "Live goroutines.", s.Goroutines)
	Single(w, "noble_heap_alloc_bytes", "gauge", "Live heap bytes.", s.HeapAllocBytes)
	Single(w, "noble_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.", s.HeapSysBytes)
	Single(w, "noble_heap_objects", "gauge", "Live heap objects.", s.HeapObjects)
	Single(w, "noble_gc_runs_total", "counter", "Completed GC cycles.", s.NumGC)
	Single(w, "noble_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause.", s.GCPauseTotalMs/1e3)
	Single(w, "noble_gc_last_pause_seconds", "gauge", "Most recent stop-the-world GC pause.", s.GCLastPauseMs/1e3)
	Single(w, "noble_gc_cpu_fraction", "gauge", "Fraction of CPU spent in GC since process start.", s.GCCPUFraction)
}
