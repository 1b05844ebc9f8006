package main

import (
	"net/http"
	"net/http/pprof"
	"sort"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// slowest merges every served model's flight recorder, slowest first.
// A reloaded model keeps its name's tracer, so the live entries' tracers
// hold every generation's traces.
func slowest(reg *serve.Registry) []telemetry.Trace {
	var out []telemetry.Trace
	for _, e := range reg.List() {
		out = append(out, e.Assigner().Tracer().Slowest()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Model != out[j].Model {
			return out[i].Model < out[j].Model
		}
		return out[i].Seq > out[j].Seq
	})
	return out
}

// newDebugMux builds the opt-in pprof mux served on -debug-addr. It is
// deliberately a separate mux on a separate listener: profiling
// endpoints never ride on the serving address, so exposing :8080 to
// clients can't expose heap dumps.
func newDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
