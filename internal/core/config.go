package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/fs/ext2sim"
	"repro/internal/fs/ext3sim"
	"repro/internal/fs/xfssim"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// StackConfig describes a complete system under test. Build
// instantiates it fresh for every run — the paper's experiments
// remount between runs, and so do we.
//
// String() is the warehouse fingerprint's serialization surface
// (Fingerprint hashes the config with %+v, which resolves this
// type's value-receiver Stringer), so every measured field must
// appear in String() — two configs that measure differently but
// print alike would silently pool their results under one
// fingerprint. The freeze annotation below makes fslint enforce
// that.
//
//fslint:freeze
type StackConfig struct {
	// FS selects the file-system model: "ext2", "ext3", "xfs".
	FS string
	// Ext3Mode selects the journaling mode when FS == "ext3".
	Ext3Mode ext3sim.Mode
	// Device selects the device model: "hdd" (default), "ssd",
	// "ramdisk", "nvme".
	Device string
	// NVMeChannels overrides the NVMe device's channel count (device
	// service width) when Device == "nvme"; 0 keeps the model default
	// (4). The device services up to this many requests concurrently.
	NVMeChannels int
	// DiskBytes sizes the device (default 64 GB — large enough for
	// the 25 GB file of Figure 3(c)).
	DiskBytes int64

	// RAMBytes is total memory; the page cache gets what the OS does
	// not take. The paper's testbed: 512 MB.
	RAMBytes int64
	// OSReserveBytes is the mean memory the OS consumes outside the
	// page cache.
	OSReserveBytes int64
	// OSReserveJitter is the per-run standard deviation of the OS
	// reserve — §3.1's "difficult to control the availability of just
	// a few megabytes from one benchmark run to another". Set 0 for
	// the (unrealistic) perfectly reproducible machine.
	OSReserveJitter int64

	// QueueDepth bounds the device queue's reorder window during the
	// measured (event-driven) phase: how many outstanding requests the
	// I/O scheduler may pick among. 0 selects device.DefaultQueueDepth
	// (32, NCQ-scale); 1 degenerates every scheduler to FCFS.
	QueueDepth int
	// Scheduler names the I/O scheduler draining the device queue:
	// "fcfs", "elevator" (C-LOOK), "ncq" (shortest-seek-first with
	// anti-starvation), "cfq" (per-requester queues, time-sliced
	// round-robin). "" selects device.DefaultScheduler.
	Scheduler string

	// CachePolicy names the eviction policy ("lru" default; "fifo",
	// "clock", "random", "2q", "arc").
	CachePolicy string
	// Readahead overrides the FS-preferred readahead policy: "",
	// "none", "fixed", "adaptive".
	Readahead string
	// L2Bytes adds a flash second cache tier of this size (0 = none).
	L2Bytes int64

	// CPUNoiseFrac is the per-run relative variation of software
	// (CPU-bound) costs: background host activity makes even fully
	// cached runs differ by a percent or two, which is why the
	// paper's memory-bound region still shows nonzero relative
	// standard deviation.
	CPUNoiseFrac float64

	// Shards splits the simulation kernel. Every run goes through the
	// one workload engine: 0 or 1 runs it at one shard on one stack;
	// N>1 partitions the workload's threads across N parallel
	// event-loop shards, each owning a complete stack replica,
	// synchronized by conservative time windows (DESIGN.md §9).
	// Results stay deterministic for a fixed (config, seed, Shards),
	// but N>1 models N replica stacks rather than one shared device —
	// Shards is an execution knob recorded in warehouse metadata,
	// excluded from the config fingerprint like Parallelism.
	Shards int

	// ShardMode selects how Shards > 1 partitions the system.
	// ShardModeReplica ("", the default) keeps the replica-stack
	// semantics above. ShardModeSharedDevice runs the contention
	// topology instead: one device and one I/O-scheduler queue shared
	// by all shards (the queue lives on a dedicated device shard,
	// reached by mailbox edges with the device cost model's MinLatency
	// as lookahead), with the page cache split evenly across the
	// thread shards so aggregate cache stays CacheBytesMean. The mode
	// is ignored at Shards <= 1.
	//
	// Fingerprint treatment differs from Shards on purpose: replica
	// shard count is an execution knob (excluded, metadata only), but
	// shared-device mode changes the measured system — one contended
	// queue, N-way cache split, submit hops of up to one lookahead —
	// so both the mode and the shard count enter the config
	// fingerprint whenever ShardMode is set (DESIGN.md §9).
	ShardMode string

	// VFS tunes software costs; zero value means vfs.DefaultConfig.
	//fslint:ignore stringerfreeze hashed by Fingerprint's own vfs| line; a pointer in String would print an address
	VFS *vfs.Config
}

// Shard modes accepted by StackConfig.ShardMode.
const (
	// ShardModeReplica partitions threads over N independent stack
	// replicas (PR 7 semantics; the default).
	ShardModeReplica = ""
	// ShardModeSharedDevice partitions threads over N shards that
	// share one device behind one queue on a dedicated device shard.
	ShardModeSharedDevice = "shared-device"
)

// PaperStack returns the configuration of the paper's testbed: ext2
// on the Maxtor SATA disk with 512 MB of RAM (about 100 MB of it
// taken by the OS, ±2 MB run-to-run).
func PaperStack() StackConfig {
	return StackConfig{
		FS:              "ext2",
		Device:          "hdd",
		DiskBytes:       64 << 30,
		RAMBytes:        512 << 20,
		OSReserveBytes:  102 << 20,
		OSReserveJitter: 2 << 20,
		CachePolicy:     "lru",
		CPUNoiseFrac:    0.008,
	}
}

// CacheBytesMean reports the expected page-cache size (RAM minus mean
// OS reserve).
func (c StackConfig) CacheBytesMean() int64 {
	b := c.RAMBytes - c.OSReserveBytes
	if b < 0 {
		return 0
	}
	return b
}

// Build instantiates the stack. The rng seeds the device noise, the
// OS-reserve draw, and the cache policy's randomness; pass a
// different rng per run. It is BuildSharedDevice's one-shard case.
func (c StackConfig) Build(rng *sim.RNG) (*vfs.Mount, error) {
	mounts, err := c.BuildSharedDevice(rng, 1)
	if err != nil {
		return nil, err
	}
	return mounts[0], nil
}

// BuildSharedDevice instantiates the shared-device sharded stack: ONE
// device, and n mounts that each get a fresh file-system instance, a
// 1/n share of this run's page cache (one OS-reserve draw — the
// shards model one machine, not n), and a 1/n share of any L2 tier.
// At n > 1 the workload engine runs these mounts behind one device
// shard; at n = 1 it is Build's single stack. The rng
// draws come in one order at any n: the device split, the OS-reserve
// draw, then each mount's L1 and L2 policy splits.
func (c StackConfig) BuildSharedDevice(rng *sim.RNG, n int) ([]*vfs.Mount, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: shared-device build needs at least one shard")
	}
	diskBytes := c.DiskBytes
	if diskBytes <= 0 {
		diskBytes = 64 << 30
	}
	dev, err := c.buildDevice(diskBytes, rng)
	if err != nil {
		return nil, err
	}
	cacheBytes := c.drawCacheBytes(rng)
	vcfg, err := c.vfsConfig()
	if err != nil {
		return nil, err
	}
	mounts := make([]*vfs.Mount, n)
	for i := range mounts {
		fsys, err := c.buildFS(diskBytes)
		if err != nil {
			return nil, err
		}
		pol, err := cache.NewPolicy(c.CachePolicy, rng.Split())
		if err != nil {
			return nil, err
		}
		l1 := cache.New(int(cacheBytes/int64(n)/cache.PageSize), pol)
		var l2 *cache.Cache
		if c.L2Bytes > 0 {
			l2pol, err := cache.NewPolicy(c.CachePolicy, rng.Split())
			if err != nil {
				return nil, err
			}
			l2 = cache.New(int(c.L2Bytes/int64(n)/cache.PageSize), l2pol)
		}
		mounts[i] = vfs.New(fsys, dev, cache.NewHierarchy(l1, l2), vcfg)
	}
	return mounts, nil
}

// buildDevice instantiates the device model (splitting the rng for
// its noise stream, except the noiseless ramdisk).
func (c StackConfig) buildDevice(diskBytes int64, rng *sim.RNG) (device.Device, error) {
	switch c.Device {
	case "", "hdd":
		cfg := device.DefaultHDD()
		cfg.CapacityBytes = diskBytes
		return device.NewHDD(cfg, rng.Split()), nil
	case "ssd":
		cfg := device.DefaultSSD()
		cfg.CapacityBytes = diskBytes
		return device.NewSSD(cfg, rng.Split()), nil
	case "ramdisk":
		return device.NewRAMDisk(diskBytes), nil
	case "nvme":
		cfg := device.DefaultNVMe()
		cfg.CapacityBytes = diskBytes
		if c.NVMeChannels > 0 {
			cfg.Channels = c.NVMeChannels
		}
		return device.NewNVMe(cfg, rng.Split()), nil
	}
	return nil, fmt.Errorf("core: unknown device %q", c.Device)
}

// buildFS instantiates a fresh file-system model.
func (c StackConfig) buildFS(diskBytes int64) (fs.FileSystem, error) {
	blocks := diskBytes / fs.BlockSize
	switch c.FS {
	case "", "ext2":
		return ext2sim.New(blocks)
	case "ext3":
		return ext3sim.New(blocks, c.Ext3Mode)
	case "xfs":
		return xfssim.New(blocks, 4)
	}
	return nil, fmt.Errorf("core: unknown file system %q", c.FS)
}

// drawCacheBytes draws this run's available page-cache size.
func (c StackConfig) drawCacheBytes(rng *sim.RNG) int64 {
	ram := c.RAMBytes
	if ram <= 0 {
		ram = 512 << 20
	}
	reserve := float64(c.OSReserveBytes)
	if c.OSReserveJitter > 0 {
		reserve = rng.NormalClamped(float64(c.OSReserveBytes), float64(c.OSReserveJitter),
			0, float64(ram))
	}
	cacheBytes := ram - int64(reserve)
	if cacheBytes < 0 {
		cacheBytes = 0
	}
	return cacheBytes
}

// vfsConfig resolves the VFS configuration, failing fast on a bad
// scheduler name instead of at first Run, and on a bad readahead name
// instead of silently running with none.
func (c StackConfig) vfsConfig() (vfs.Config, error) {
	vcfg := vfs.DefaultConfig()
	if c.VFS != nil {
		vcfg = *c.VFS
	}
	if c.Readahead != "" {
		if names := cache.ReadaheadNames(); !slices.Contains(names, c.Readahead) {
			return vfs.Config{}, fmt.Errorf("core: unknown readahead %q (want %s)",
				c.Readahead, strings.Join(names, ", "))
		}
		vcfg.Readahead = cache.NewReadahead(c.Readahead)
	}
	if c.QueueDepth != 0 {
		vcfg.QueueDepth = c.QueueDepth
	}
	if c.Scheduler != "" {
		vcfg.Scheduler = c.Scheduler
	}
	if _, err := device.NewScheduler(vcfg.Scheduler); err != nil {
		return vfs.Config{}, err
	}
	return vcfg, nil
}

// String summarizes the configuration for reports.
func (c StackConfig) String() string {
	dev := c.Device
	if dev == "" {
		dev = "hdd"
	}
	if dev == "nvme" {
		ch := c.NVMeChannels
		if ch <= 0 {
			ch = device.DefaultNVMe().Channels
		}
		dev = fmt.Sprintf("nvme[%dch]", ch)
	}
	fsName := c.FS
	if fsName == "" {
		fsName = "ext2"
	}
	depth := c.QueueDepth
	if depth <= 0 {
		depth = device.DefaultQueueDepth
	}
	s := fmt.Sprintf("%s/%s ram=%dMB reserve=%d±%dMB policy=%s sched=%s qd=%d",
		fsName, dev, c.RAMBytes>>20, c.OSReserveBytes>>20, c.OSReserveJitter>>20,
		orDefault(c.CachePolicy, "lru"), orDefault(c.Scheduler, device.DefaultScheduler), depth)
	// Non-default knobs append conditionally so configs that never
	// set them keep their historical fingerprints.
	if c.Ext3Mode != ext3sim.Ordered {
		s += fmt.Sprintf(" ext3=%s", c.Ext3Mode)
	}
	if c.DiskBytes > 0 {
		s += fmt.Sprintf(" disk=%dMB", c.DiskBytes>>20)
	}
	if c.Readahead != "" {
		s += fmt.Sprintf(" ra=%s", c.Readahead)
	}
	if c.L2Bytes > 0 {
		s += fmt.Sprintf(" l2=%dMB", c.L2Bytes>>20)
	}
	if c.CPUNoiseFrac != 0 {
		s += fmt.Sprintf(" cpunoise=%g", c.CPUNoiseFrac)
	}
	if c.Shards > 1 {
		s += fmt.Sprintf(" shards=%d", c.Shards)
		if c.ShardMode != ShardModeReplica {
			s += fmt.Sprintf(" mode=%s", c.ShardMode)
		}
	}
	return s
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
