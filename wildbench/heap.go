package main

import (
	"runtime"
	"runtime/metrics"
)

// liveHeapMB collects garbage and returns the live Go heap in MiB. The
// workloads call it at the end of each operation, with the operation's
// state and result still referenced, and report the largest reading: a
// footprint that does not depend on where in its cycle the collector
// happened to run, which a sampled peak would.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
