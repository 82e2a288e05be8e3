// Package obs is the simulator's zero-dependency observability layer:
// run-scoped metrics, structured event tracing, and timing spans for the
// scheduling and simulation hot paths.
//
// The package has three pieces:
//
//   - Registry: a concurrency-safe, run-scoped collection of counters,
//     gauges, fixed-bucket histograms, and counter vecs (one series per
//     tuple of up to three labels, each vec behind one lock). Every method
//     is nil-safe — a nil *Registry compiles to a no-op and adds no
//     allocations, so existing callers and benchmarks that do not opt in
//     pay nothing.
//
//   - Tracer: a structured event stream. Components emit typed Events
//     (plan computed, planned reallocation, forced migration, stable-core
//     pause, forecast horizon switch, MIP solve start/finish with
//     wall-clock duration and objective value) into an in-memory ring
//     buffer; an optional sink mirrors every event as one JSON object per
//     line (JSONL). Per-type counts and GB/core totals are tracked exactly
//     even after the ring wraps, so event totals always reconcile with the
//     run's aggregate results.
//
//   - Time: lightweight timing spans. `defer obs.Time(reg, "mip.solve")()`
//     records the enclosing call's wall-clock duration into the registry
//     histogram of that name (in seconds). With a nil registry the span
//     neither reads the clock nor allocates.
//
// A run's full picture is serialized as a Manifest (seed, policy, fleet,
// counters, histograms, per-event-type totals) via Registry.Manifest —
// the JSON document the `-metrics` CLI flags write, and the baseline every
// future performance PR measures against.
//
// Typical wiring:
//
//	reg := obs.NewRegistry()
//	reg.Tracer().SetSink(file)        // optional JSONL stream
//	cfg.Obs, in.Obs = reg, reg        // core.Config and sim.Input
//	res, err := sim.Run(cfg, in)
//	m := reg.Manifest()
//	m.Policy = cfg.Policy.String()
//	err = m.WriteJSON(out)
package obs
