package server

import (
	"runtime/metrics"
	"sync"

	"repro/internal/obs"
)

// cpuClasses are the runtime/metrics CPU classes of the "cpu" block of
// /v1/stats and of verifai_cpu_seconds_total, each under its class label:
// user code; the collector's mark phase, split into what allocating
// goroutines assist, what its dedicated workers do and what it does on
// otherwise idle processors; its stop-the-world pauses; returning memory
// to the OS; and total, the CPU time GOMAXPROCS makes available since the
// process started (wall time times GOMAXPROCS), of which the rest is
// idle. The runtime updates them as the collector runs.
var cpuClasses = []struct{ class, metric string }{
	{"user", "/cpu/classes/user:cpu-seconds"},
	{"gc_mark_assist", "/cpu/classes/gc/mark/assist:cpu-seconds"},
	{"gc_mark_dedicated", "/cpu/classes/gc/mark/dedicated:cpu-seconds"},
	{"gc_mark_idle", "/cpu/classes/gc/mark/idle:cpu-seconds"},
	{"gc_pause", "/cpu/classes/gc/pause:cpu-seconds"},
	{"scavenge", "/cpu/classes/scavenge/total:cpu-seconds"},
	{"total", "/cpu/classes/total:cpu-seconds"},
}

// cpuSeconds reads cpuClasses: the "cpu" block of /v1/stats.
func cpuSeconds() map[string]float64 {
	samples := make([]metrics.Sample, len(cpuClasses))
	for i, c := range cpuClasses {
		samples[i].Name = c.metric
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for i, sm := range samples {
		if sm.Value.Kind() == metrics.KindFloat64 {
			out[cpuClasses[i].class] = sm.Value.Float64()
		}
	}
	return out
}

// registerCPUMetrics registers verifai_cpu_seconds_total in reg: the
// classes of cpuSeconds, read once per exposition.
func registerCPUMetrics(reg *obs.Registry) {
	var mu sync.Mutex
	var cpu map[string]float64
	reg.OnCollect(func() {
		c := cpuSeconds()
		mu.Lock()
		cpu = c
		mu.Unlock()
	})
	classes := make([]string, len(cpuClasses))
	for i, c := range cpuClasses {
		classes[i] = c.class
	}
	reg.CounterVecFunc("verifai_cpu_seconds_total",
		"The process's CPU time by class, from runtime/metrics /cpu/classes: user code, the collector's mark assists, dedicated and idle-time mark workers and pauses, scavenging, and the total GOMAXPROCS makes available.", "class",
		classes, func(class string) float64 {
			mu.Lock()
			defer mu.Unlock()
			return cpu[class]
		})
}
