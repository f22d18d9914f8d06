// Contention: the scaling dimension made visible. A thread-count
// sweep (1 → 64) over a disk-bound random-read workload, at device
// queue depth 1 and 32 under the NCQ scheduler.
//
// With the discrete-event device queue, threads genuinely contend:
// throughput saturates once the disk is the bottleneck instead of
// scaling linearly by construction, the deep queue buys extra
// throughput because the scheduler reorders across a 32-request
// window, and p99 latency inflates with thread count as requests
// queue — and, at depth 32, as reordering bypasses unlucky requests.
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
	counts := []int{1, 4, 16, 64}
	depths := []int{1, 32}

	// A scaled-down testbed (64 MB RAM, 4 GB disk) so the example runs
	// in seconds; the 1 GB file is ≫ cache (disk-bound) and wide
	// enough on disk that reordering has seek distance to reclaim.
	mk := func(threads int) *fsbench.Workload {
		return fsbench.RandomRead(1<<30, 2<<10, threads)
	}

	type point struct {
		tp    float64
		p99ms float64
	}
	results := map[int][]point{}
	for _, depth := range depths {
		stack := fsbench.StackConfig{
			FS: "ext2", Device: "hdd", DiskBytes: 4 << 30,
			RAMBytes: 64 << 20, OSReserveBytes: 13 << 20,
			CachePolicy: "lru",
			Scheduler:   "ncq",
			QueueDepth:  depth,
		}
		sweep := fsbench.ThreadCountSweep(stack, mk, counts, 2,
			20*fsbench.Second, 10*fsbench.Second, 11+uint64(depth))
		sweep.Base.ColdCache = true
		sweep.Base.Kinds = []fsbench.OpKind{workload.OpReadRand}
		res, err := sweep.Run()
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range res.Points {
			results[depth] = append(results[depth], point{
				tp:    p.Result.Throughput.Mean,
				p99ms: float64(p.Result.Hist.Quantile(fsbench.P99)) / 1e6,
			})
		}
	}

	t := &report.Table{
		Title:   "thread-count sweep, disk-bound 2 KB random reads (ncq)",
		Headers: []string{"threads", "qd=1 ops/s", "qd=1 p99 ms", "qd=32 ops/s", "qd=32 p99 ms"},
	}
	for i, n := range counts {
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", results[1][i].tp),
			fmt.Sprintf("%.1f", results[1][i].p99ms),
			fmt.Sprintf("%.0f", results[32][i].tp),
			fmt.Sprintf("%.1f", results[32][i].p99ms),
		)
	}
	if _, err := t.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}

	last := len(counts) - 1
	fmt.Printf("\nthroughput saturation: 64 threads give %.1fx the 1-thread ops/s at qd=32 (not 64x)\n",
		results[32][last].tp/results[32][0].tp)
	fmt.Printf("queue depth at 64 threads: qd=32 sustains %.2fx the qd=1 throughput\n",
		results[32][last].tp/results[1][last].tp)
	fmt.Printf("the price: p99 inflates from %.1f ms (1 thread) to %.1f ms (64 threads) at qd=32\n",
		results[32][0].p99ms, results[32][last].p99ms)
}
