package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TraceReplay makes a captured trace a first-class workload source
// for an Experiment: set Experiment.Trace (and leave Workload nil)
// and every run replays the trace through the event kernel under the
// experiment's usual protocol — Runs independent repetitions with
// derived seeds, bit-identical at any Parallelism.
type TraceReplay struct {
	// Tenants are the trace sources replayed concurrently under
	// distinct owner ranges and path prefixes (multi-tenant merge).
	// A single entry replays the trace as captured.
	Tenants []trace.Source
	// Mode is the timing discipline (timed / afap / scaled).
	Mode trace.ReplayMode
	// Scale compresses inter-arrival gaps in scaled mode (×2 doubles
	// the offered intensity); <= 0 means 1.
	Scale float64
	// Name labels results and warehouse records (e.g. the trace file).
	Name string

	// resolved caches the pre-scan (digest, streams, span) so the
	// sources are read once per experiment, not once per fingerprint
	// or run-aggregate consumer.
	resolved   bool
	resolveErr error
	digest     string
	workers    int
	span       sim.Time
	records    int64
}

// resolve pre-scans every tenant source once.
func (t *TraceReplay) resolve() error {
	if t.resolved {
		return t.resolveErr
	}
	t.resolved = true
	if len(t.Tenants) == 0 {
		t.resolveErr = fmt.Errorf("core: trace replay without tenant sources")
		return t.resolveErr
	}
	var digests []string
	for i, src := range t.Tenants {
		sc, err := trace.ScanSource(src)
		if err != nil {
			t.resolveErr = fmt.Errorf("core: scanning trace tenant %d: %w", i, err)
			return t.resolveErr
		}
		digests = append(digests, sc.Digest)
		t.workers += len(sc.Streams)
		t.records += sc.Records
		if sc.Span > t.span {
			t.span = sc.Span
		}
	}
	if len(digests) == 1 {
		t.digest = digests[0]
	} else {
		h := sha256.Sum256([]byte(strings.Join(digests, "|")))
		t.digest = hex.EncodeToString(h[:])[:32]
	}
	return nil
}

// Digest identifies the trace content (order-insensitive, combined
// across tenants); it is what warehouse fingerprints fold in so gate
// comparisons of traced runs compare the same trace. Resolution is
// lazy; an unreadable source yields "" (the error surfaces when the
// experiment prepares).
func (t *TraceReplay) Digest() string {
	if t.resolve() != nil {
		return ""
	}
	return t.digest
}

// Workers reports the total replay stream count across tenants — the
// experiment's OwnerID population, which Jain padding uses the way
// Workload.TotalThreads is used for synthetic workloads.
func (t *TraceReplay) Workers() int {
	if t.resolve() != nil {
		return 0
	}
	return t.workers
}

// Span reports the longest tenant's recorded duration.
func (t *TraceReplay) Span() sim.Time {
	if t.resolve() != nil {
		return 0
	}
	return t.span
}

// Records reports the total record count across tenants.
func (t *TraceReplay) Records() int64 {
	if t.resolve() != nil {
		return 0
	}
	return t.records
}

// scale reports the effective time-compression factor.
func (t *TraceReplay) scale() float64 {
	if t.Mode == trace.Scaled && t.Scale > 0 {
		return t.Scale
	}
	return 1
}

// defaultDuration is the natural horizon of a replay: the recorded
// span compressed by the scale factor. Running exactly to it makes
// the completion ratio honest — arrivals the system could not absorb
// inside the (scaled) recording window count as abandoned backlog.
func (t *TraceReplay) defaultDuration() sim.Time {
	if t.resolve() != nil {
		return 0
	}
	d := sim.Time(float64(t.span)/t.scale()) + sim.Millisecond
	if d < sim.Millisecond {
		d = sim.Millisecond
	}
	return d
}

// engineConfig builds the per-run replay engine configuration.
func (t *TraceReplay) engineConfig() trace.EngineConfig {
	return trace.EngineConfig{
		Mode:    t.Mode,
		Scale:   t.Scale,
		Tenants: t.Tenants,
	}
}
