// Open loop vs closed loop: the harness-structure artifact made
// visible. The same disk serves the same 2 KB random reads at the
// same intended rates — once from a closed loop (think-paced threads,
// arrivals gated by completions) and once from an open loop (Poisson
// generator feeding a worker pool, arrivals independent of
// completions).
//
// Below the device's saturation knee the two agree: matched
// throughput, comparable tails. Past the knee the closed loop
// self-throttles — it simply issues less, and its latency stays at
// queue-depth scale — while the open loop's backlog grows without
// bound and latency measured from arrival explodes. A benchmark that
// only ever runs closed loops structurally cannot observe saturation
// latency; that is the trap the paper warns about.
package main

import (
	"fmt"
	"log"
	"os"

	fsbench "repro"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	const workers = 8
	// Scaled-down testbed (64 MB RAM, ~51 MB cache, 4 GB disk): the
	// 512 MB file is disk-bound and the example runs in seconds.
	stack := fsbench.StackConfig{
		FS: "ext2", Device: "hdd", DiskBytes: 4 << 30,
		RAMBytes: 64 << 20, OSReserveBytes: 13 << 20,
		CachePolicy: "lru", Scheduler: "ncq",
	}
	mkExp := func(name string, w *fsbench.Workload) *fsbench.Experiment {
		return &fsbench.Experiment{
			Name:          name,
			Stack:         stack,
			Workload:      w,
			Runs:          1,
			Duration:      20 * fsbench.Second,
			MeasureWindow: 10 * fsbench.Second,
			ColdCache:     true,
			Seed:          7,
			Kinds:         []fsbench.OpKind{workload.OpReadRand},
		}
	}

	// Measure capacity with an unthrottled closed loop.
	capRes, err := mkExp("capacity", fsbench.RandomRead(512<<20, 2<<10, workers)).Run()
	if err != nil {
		log.Fatal(err)
	}
	capacity := capRes.Throughput.Mean
	fmt.Printf("closed-loop saturation: %.0f ops/s\n\n", capacity)

	t := &report.Table{
		Title: "same offered load, two harness structures",
		Headers: []string{"offered", "closed ops/s", "closed p99 ms",
			"open ops/s", "open p99 ms", "open done %", "backlog peak"},
	}
	var lastClosed, lastOpen float64
	for _, frac := range []float64{0.5, 0.9, 1.25} {
		rate := frac * capacity
		closed := fsbench.RandomRead(512<<20, 2<<10, workers)
		closed.Name = "closedpaced"
		think := fsbench.Time(float64(workers) / rate * float64(fsbench.Second))
		closed.Threads[0].Flowops = append(closed.Threads[0].Flowops,
			fsbench.Flowop{Kind: workload.OpThink, Think: think})
		cRes, err := mkExp("closed", closed).Run()
		if err != nil {
			log.Fatal(err)
		}
		oRes, err := mkExp("open", fsbench.OpenLoopRead(512<<20, 2<<10, workers, rate)).Run()
		if err != nil {
			log.Fatal(err)
		}
		lastClosed = float64(cRes.Hist.Quantile(fsbench.P99)) / 1e6
		lastOpen = float64(oRes.Hist.Quantile(fsbench.P99)) / 1e6
		t.AddRow(
			fmt.Sprintf("%.2fx", frac),
			fmt.Sprintf("%.0f", cRes.Throughput.Mean),
			fmt.Sprintf("%.1f", lastClosed),
			fmt.Sprintf("%.0f", oRes.Throughput.Mean),
			fmt.Sprintf("%.1f", lastOpen),
			fmt.Sprintf("%.1f", oRes.Load.CompletionRatio()*100),
			fmt.Sprintf("%d", oRes.Load.BacklogPeak),
		)
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npast the knee the closed loop self-throttles (p99 %.0f ms) while the open loop's\n", lastClosed)
	fmt.Printf("arrival-to-completion p99 explodes (%.0f ms, %.1fx) — same device, same ops,\n",
		lastOpen, lastOpen/lastClosed)
	fmt.Println("different harness structure. Latency here is measured from arrival (queue entry).")
}
