package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/warehouse"
	"repro/internal/warehouse/gate"
)

// warehouseMain dispatches the archive modes: list (default), -query,
// and -compare.
func warehouseMain(dir, query string, compare bool, baseSel, candSel string, alpha float64) error {
	st, err := warehouse.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	set, err := st.Load()
	if err != nil {
		return err
	}
	if len(set) == 0 {
		return fmt.Errorf("warehouse %s holds no records", dir)
	}
	switch {
	case compare:
		return compareSets(set, baseSel, candSel, alpha)
	case query != "":
		f, err := parseSelector(query)
		if err != nil {
			return err
		}
		return queryStats(set.Filter(f))
	default:
		return listSets(set)
	}
}

// parseSelector reads "key=value,key=value" into a warehouse Filter.
func parseSelector(sel string) (warehouse.Filter, error) {
	var f warehouse.Filter
	for _, pair := range strings.Split(sel, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return f, fmt.Errorf("selector %q: want key=value", pair)
		}
		switch strings.TrimSpace(k) {
		case "name":
			f.Name = v
		case "personality":
			f.Personality = v
		case "fs":
			f.FS = v
		case "device":
			f.Device = v
		case "scheduler", "sched":
			f.Scheduler = v
		case "arrival":
			f.Arrival = v
		case "config", "fingerprint":
			f.Fingerprint = v
		case "git_rev", "rev":
			f.GitRev = v
		case "trace":
			f.TraceDigest = v
		case "replay", "replay_mode":
			f.ReplayMode = v
		default:
			return f, fmt.Errorf("selector key %q: want name, personality, fs, device, scheduler, arrival, config, git_rev, trace, or replay", k)
		}
	}
	return f, nil
}

// listSets prints one row per (name, fingerprint) group — what the
// archive holds and how much evidence backs each configuration.
func listSets(set warehouse.Set) error {
	groups := set.GroupBy(func(r warehouse.Record) string {
		return r.Name + "\x00" + r.Fingerprint
	})
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t := &report.Table{
		Title:   fmt.Sprintf("%d records, %d runs", len(set), set.Runs()),
		Headers: []string{"name", "config", "stack", "arrival", "trace", "shards", "mode", "records", "runs", "ops/s mean", "revs"},
	}
	for _, k := range keys {
		g := groups[k]
		r := g[0]
		revs := map[string]bool{}
		shardSet := map[int]bool{}
		for _, rec := range g {
			if rec.GitRev != "" {
				revs[rec.GitRev] = true
			}
			// Records pooled under one fingerprint may have run at
			// different shard counts (the knob is execution metadata,
			// not configuration): surface every count in the group.
			s := rec.Shards
			if s <= 0 {
				s = 1
			}
			shardSet[s] = true
		}
		shardCounts := make([]int, 0, len(shardSet))
		for s := range shardSet {
			shardCounts = append(shardCounts, s)
		}
		sort.Ints(shardCounts)
		shardCol := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(shardCounts)), ","), "[]")
		// The mode is part of the fingerprint when set, so one group has
		// one mode; "replica" spells out the empty default.
		mode := r.ShardMode
		if mode == "" {
			mode = "replica"
		}
		// Traced runs carry the replayed trace's content digest; the
		// replay discipline already shows in the arrival column.
		traceCol := "-"
		if r.TraceDigest != "" {
			traceCol = r.TraceDigest[:min(8, len(r.TraceDigest))]
		}
		tp := g.Throughputs()
		mean := 0.0
		for _, v := range tp {
			mean += v
		}
		if len(tp) > 0 {
			mean /= float64(len(tp))
		}
		t.AddRow(
			r.Name,
			r.Fingerprint[:12],
			fmt.Sprintf("%s/%s/%s", r.FS, r.Device, r.Scheduler),
			r.Arrival,
			traceCol,
			shardCol,
			mode,
			fmt.Sprintf("%d", len(g)),
			fmt.Sprintf("%d", g.Runs()),
			fmt.Sprintf("%.0f", mean),
			fmt.Sprintf("%d", len(revs)),
		)
	}
	_, err := t.WriteTo(os.Stdout)
	return err
}

// queryStats prints the pooled distribution of a filtered run-set —
// the numbers a comparison would consume.
func queryStats(set warehouse.Set) error {
	if len(set) == 0 {
		return fmt.Errorf("no records match the selector")
	}
	fmt.Printf("%d records, %d runs, %d distinct configs\n\n",
		len(set), set.Runs(), len(set.Fingerprints()))
	tp := set.Throughputs()
	sum := stats.Summarize(tp)
	fmt.Printf("throughput: mean=%.1f ops/s  sd=%.1f  rsd=%.1f%%  n=%d\n",
		sum.Mean, sum.StdDev, sum.RSD*100, sum.N)
	h := set.MergedHist()
	if h.Count() > 0 {
		fmt.Printf("latency:    mean=%.0f ns  p50=%d  p99=%d  (%d ops)\n",
			h.Mean(), h.Quantile(metrics.P50), h.Quantile(metrics.P99), h.Count())
		fmt.Println()
		return report.Histogram(os.Stdout, "pooled operation latency (log2 buckets)", h)
	}
	return nil
}

// compareSets gates the candidate selection against the baseline
// selection and exits non-zero (via the returned error path in main)
// on regression.
func compareSets(set warehouse.Set, baseSel, candSel string, alpha float64) error {
	if baseSel == "" || candSel == "" {
		return fmt.Errorf("-compare needs both -base and -cand selectors")
	}
	bf, err := parseSelector(baseSel)
	if err != nil {
		return fmt.Errorf("-base: %w", err)
	}
	cf, err := parseSelector(candSel)
	if err != nil {
		return fmt.Errorf("-cand: %w", err)
	}
	base, cand := set.Filter(bf), set.Filter(cf)
	if len(base) == 0 {
		return fmt.Errorf("-base selector matches no records")
	}
	if len(cand) == 0 {
		return fmt.Errorf("-cand selector matches no records")
	}
	rep := gate.Compare(base, cand, gate.Config{Alpha: alpha})
	fmt.Print(rep)
	if regs := rep.Regressions(); len(regs) > 0 {
		names := make([]string, len(regs))
		for i, m := range regs {
			names[i] = m.Metric
		}
		fmt.Printf("\nREGRESSED: %s\n", strings.Join(names, ", "))
		os.Exit(1)
	}
	fmt.Println("\nno regressions at this alpha")
	return nil
}
