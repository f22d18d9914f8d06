package bench

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/fs/ext2sim"
	"repro/internal/fs/ext3sim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// The wrapped layers. Their calls never nest in one another: the VFS
// calls the file system, the cache calls its policy, the device queue
// calls the model and the replay dispatcher calls the trace reader,
// each from outside the others. So Run minus the sum of their spans is
// the self time of everything left unwrapped: the engine, VFS, kernel,
// cache maps and metrics.
const (
	layerDevice = iota
	layerFS
	layerPolicy
	layerTrace
	numLayers
)

var layerNames = [numLayers]string{"device", "fs", "cache.policy", "trace"}

// call identifies one recorded method.
type call uint8

const (
	callSubmit call = iota
	callLookup
	callGetattr
	callCreate
	callRemove
	callReadDir
	callMap
	callResize
	callFsync
	callTouchAtime
	callOnAccess
	callOnInsert
	callOnRemove
	callOnMiss
	callVictim
	callOpen
	callNext
	callEmpty // calibration only
)

var calls = [...]struct {
	name  string
	layer int
}{
	callSubmit: {"Submit", layerDevice}, callLookup: {"Lookup", layerFS},
	callGetattr: {"Getattr", layerFS}, callCreate: {"Create", layerFS},
	callRemove: {"Remove", layerFS}, callReadDir: {"ReadDir", layerFS},
	callMap: {"Map", layerFS}, callResize: {"Resize", layerFS},
	callFsync: {"Fsync", layerFS}, callTouchAtime: {"TouchAtime", layerFS},
	callOnAccess: {"OnAccess", layerPolicy}, callOnInsert: {"OnInsert", layerPolicy},
	callOnRemove: {"OnRemove", layerPolicy}, callOnMiss: {"OnMiss", layerPolicy},
	callVictim: {"Victim", layerPolicy}, callOpen: {"Open", layerTrace},
	callNext: {"Next", layerTrace}, callEmpty: {"empty", layerDevice},
}

// maxRawSpans bounds the raw spans kept per layer for the Chrome dump;
// aggregates count every call.
const maxRawSpans = 1 << 18

// span is one recorded call, in nanoseconds since the tracer's base.
type span struct {
	start, end int64
	call       call
}

type layerAgg struct {
	count, total int64
	raw          []span
}

// Tracer records a span around every call into the wrapped layers
// while a rep's Run is in progress; outside Run the wrappers only
// forward. The simulation kernel hands one baton between goroutines
// over channels, so the tracer needs no lock.
type Tracer struct {
	base     time.Time
	active   bool
	layers   [numLayers]layerAgg
	runStart int64
	runEnd   int64
	// inside and cost calibrate the tracer on the running host: the
	// part of an empty span's overhead that lands inside its recorded
	// interval, and the whole cost of recording one.
	inside, cost float64
}

// NewTracer returns a tracer calibrated against empty spans.
func NewTracer() *Tracer {
	t := &Tracer{base: time.Now()}
	t.inside, t.cost = t.calibrate(50000)
	return t
}

func (t *Tracer) now() int64 { return int64(time.Since(t.base)) }

// enter starts a span; -1 means the tracer is idle.
func (t *Tracer) enter() int64 {
	if !t.active {
		return -1
	}
	return t.now()
}

// exit ends a span begun by enter. Wrappers call it as
// `defer t.exit(c, t.enter())`, so the deferred call's arguments read
// the clock before the wrapped call runs.
func (t *Tracer) exit(c call, start int64) {
	if start < 0 {
		return
	}
	end := t.now()
	l := &t.layers[calls[c].layer]
	l.count++
	l.total += end - start
	if len(l.raw) < maxRawSpans {
		l.raw = append(l.raw, span{start: start, end: end, call: c})
	}
}

func (t *Tracer) empty() { defer t.exit(callEmpty, t.enter()) }

// calibrate records n empty spans on a scratch tracer and returns the
// median over five batches of the mean recorded span length and of the
// mean host cost per span.
func (t *Tracer) calibrate(n int) (inside, cost float64) {
	var ins, costs []float64
	for b := 0; b < 5; b++ {
		s := &Tracer{base: t.base, active: true}
		start := time.Now()
		for i := 0; i < n; i++ {
			s.empty()
		}
		costs = append(costs, float64(time.Since(start))/float64(n))
		l := s.layers[calls[callEmpty].layer]
		ins = append(ins, float64(l.total)/float64(l.count))
	}
	return median(ins), median(costs)
}

func (t *Tracer) begin() {
	t.active = true
	t.runStart = t.now()
}

func (t *Tracer) end() {
	t.runEnd = t.now()
	t.active = false
}

// LayerTime is one wrapped layer's share of a traced Run.
type LayerTime struct {
	Layer string
	Calls int64
	// NS is the layer's span time with the measured in-span overhead of
	// recording removed.
	NS float64
}

// TraceSummary is a traced rep's per-layer account.
type TraceSummary struct {
	Layers []LayerTime
	// RunNS is the host time of Run; SelfNS is the part no wrapped
	// layer accounts for, with every span's recording cost removed.
	RunNS, SelfNS float64
	// SpanCostNS is the host cost of recording one empty span.
	SpanCostNS float64
}

// Layer returns the named layer's account (zero if absent).
func (s *TraceSummary) Layer(name string) LayerTime {
	for _, l := range s.Layers {
		if l.Layer == name {
			return l
		}
	}
	return LayerTime{Layer: name}
}

func (t *Tracer) summary(run time.Duration) *TraceSummary {
	s := &TraceSummary{RunNS: float64(run), SpanCostNS: t.cost}
	s.SelfNS = s.RunNS
	for i := range t.layers {
		l := &t.layers[i]
		ns := float64(l.total) - float64(l.count)*t.inside
		s.Layers = append(s.Layers, LayerTime{Layer: layerNames[i], Calls: l.count, NS: ns})
		s.SelfNS -= ns + float64(l.count)*t.cost
	}
	return s
}

// WriteChrome writes the kept spans as Chrome trace-event JSON: the
// rep's workload.run span and, nested inside it on the same track,
// every kept leaf span named by its layer and call.
func (t *Tracer) WriteChrome(path, workloadName string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// event appends one complete ("X") event, without its closing brace;
	// times are in microseconds. Names and categories are identifiers
	// that need no JSON escaping.
	event := func(b []byte, name, cat string, start, end int64) []byte {
		b = append(b, `{"name":"`...)
		b = append(b, name...)
		b = append(b, `","cat":"`...)
		b = append(b, cat...)
		b = append(b, `","ph":"X","ts":`...)
		b = strconv.AppendFloat(b, float64(start)/1e3, 'f', 3, 64)
		b = append(b, `,"dur":`...)
		b = strconv.AppendFloat(b, float64(end-start)/1e3, 'f', 3, 64)
		return append(b, `,"pid":1,"tid":1`...)
	}
	b := []byte(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	b = event(b, "workload.run", "workload", t.runStart, t.runEnd)
	b = fmt.Appendf(b, `,"args":{"workload":%q}}`, workloadName)
	var all []span
	for i := range t.layers {
		all = append(all, t.layers[i].raw...)
	}
	slices.SortFunc(all, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	for _, s := range all {
		c := calls[s.call]
		b = append(b, ",\n"...)
		b = append(event(b, c.name, layerNames[c.layer], s.start, s.end), '}')
		if len(b) >= 1<<16 {
			if _, err := f.Write(b); err != nil {
				f.Close()
				return err
			}
			b = b[:0]
		}
	}
	if _, err := f.Write(append(b, "\n]}\n"...)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Build assembles the stack c describes from public constructors, in
// the order core.StackConfig.Build consumes rng, with the device, file
// system and cache policy wrapped. The traced rep's digest must equal
// the untraced one, which checks that this assembly matches Build.
func (t *Tracer) Build(c core.StackConfig, rng *sim.RNG) (*vfs.Mount, error) {
	if c.L2Bytes > 0 || c.Shards > 1 {
		return nil, fmt.Errorf("bench: traced stacks support one cache level and one shard")
	}
	diskBytes := c.DiskBytes
	if diskBytes <= 0 {
		diskBytes = 64 << 30
	}
	var dev device.Device
	switch c.Device {
	case "", "hdd":
		cfg := device.DefaultHDD()
		cfg.CapacityBytes = diskBytes
		dev = device.NewHDD(cfg, rng.Split())
	case "ssd":
		cfg := device.DefaultSSD()
		cfg.CapacityBytes = diskBytes
		dev = device.NewSSD(cfg, rng.Split())
	case "nvme":
		cfg := device.DefaultNVMe()
		cfg.CapacityBytes = diskBytes
		if c.NVMeChannels > 0 {
			cfg.Channels = c.NVMeChannels
		}
		dev = device.NewNVMe(cfg, rng.Split())
	default:
		return nil, fmt.Errorf("bench: unknown device %q", c.Device)
	}
	blocks := diskBytes / fs.BlockSize
	var fsys fs.FileSystem
	var err error
	switch c.FS {
	case "", "ext2":
		fsys, err = ext2sim.New(blocks)
	case "ext3":
		fsys, err = ext3sim.New(blocks, c.Ext3Mode)
	default:
		err = fmt.Errorf("bench: unknown file system %q", c.FS)
	}
	if err != nil {
		return nil, err
	}
	// The cache-size draw: RAM minus an OS reserve drawn around its mean.
	ram := c.RAMBytes
	if ram <= 0 {
		ram = 512 << 20
	}
	reserve := float64(c.OSReserveBytes)
	if c.OSReserveJitter > 0 {
		reserve = rng.NormalClamped(float64(c.OSReserveBytes), float64(c.OSReserveJitter), 0, float64(ram))
	}
	cacheBytes := max(ram-int64(reserve), 0)
	pol, err := cache.NewPolicy(c.CachePolicy, rng.Split())
	if err != nil {
		return nil, err
	}
	l1 := cache.New(int(cacheBytes/cache.PageSize), &tracedPolicy{pol, t})

	vcfg := vfs.DefaultConfig()
	if c.VFS != nil {
		vcfg = *c.VFS
	}
	if c.Readahead != "" {
		vcfg.Readahead = cache.NewReadahead(c.Readahead)
	}
	if c.QueueDepth != 0 {
		vcfg.QueueDepth = c.QueueDepth
	}
	if c.Scheduler != "" {
		vcfg.Scheduler = c.Scheduler
	}
	return vfs.New(&tracedFS{fsys, t}, &tracedDevice{dev, t}, cache.NewHierarchy(l1, nil), vcfg), nil
}

// Source wraps a trace source so its iterators are traced.
func (t *Tracer) Source(src trace.Source) trace.Source { return tracedSource{src, t} }

// tracedDevice wraps a device model. It always implements
// device.MultiQueue, reporting width 1 for single-service models —
// which the queue treats exactly like a device without the method.
type tracedDevice struct {
	device.Device
	t *Tracer
}

func (d *tracedDevice) Submit(at sim.Time, req device.Request) (sim.Time, error) {
	defer d.t.exit(callSubmit, d.t.enter())
	return d.Device.Submit(at, req)
}

func (d *tracedDevice) ServiceWidth() int {
	if mq, ok := d.Device.(device.MultiQueue); ok {
		return mq.ServiceWidth()
	}
	return 1
}

// tracedFS wraps a file-system model; accessors that do no work
// (Name, Root, capacity, readahead hint) forward unrecorded.
type tracedFS struct {
	fs.FileSystem
	t *Tracer
}

func (f *tracedFS) Lookup(dir fs.Ino, name string) (fs.Ino, []fs.IOStep, error) {
	defer f.t.exit(callLookup, f.t.enter())
	return f.FileSystem.Lookup(dir, name)
}

func (f *tracedFS) Getattr(ino fs.Ino) (fs.Inode, []fs.IOStep, error) {
	defer f.t.exit(callGetattr, f.t.enter())
	return f.FileSystem.Getattr(ino)
}

func (f *tracedFS) Create(dir fs.Ino, name string, ft fs.FileType, now sim.Time) (fs.Ino, []fs.IOStep, error) {
	defer f.t.exit(callCreate, f.t.enter())
	return f.FileSystem.Create(dir, name, ft, now)
}

func (f *tracedFS) Remove(dir fs.Ino, name string, now sim.Time) ([]fs.IOStep, error) {
	defer f.t.exit(callRemove, f.t.enter())
	return f.FileSystem.Remove(dir, name, now)
}

func (f *tracedFS) ReadDir(dir fs.Ino) ([]fs.DirEntry, []fs.IOStep, error) {
	defer f.t.exit(callReadDir, f.t.enter())
	return f.FileSystem.ReadDir(dir)
}

func (f *tracedFS) Map(ino fs.Ino, fileBlock, n int64) ([]fs.Extent, []fs.IOStep, error) {
	defer f.t.exit(callMap, f.t.enter())
	return f.FileSystem.Map(ino, fileBlock, n)
}

func (f *tracedFS) Resize(ino fs.Ino, size int64, now sim.Time) ([]fs.IOStep, error) {
	defer f.t.exit(callResize, f.t.enter())
	return f.FileSystem.Resize(ino, size, now)
}

func (f *tracedFS) Fsync(ino fs.Ino) ([]fs.IOStep, error) {
	defer f.t.exit(callFsync, f.t.enter())
	return f.FileSystem.Fsync(ino)
}

func (f *tracedFS) TouchAtime(ino fs.Ino, now sim.Time) []fs.IOStep {
	defer f.t.exit(callTouchAtime, f.t.enter())
	return f.FileSystem.TouchAtime(ino, now)
}

// tracedPolicy wraps a cache eviction policy.
type tracedPolicy struct {
	cache.Policy
	t *Tracer
}

func (p *tracedPolicy) OnAccess(id cache.PageID) {
	defer p.t.exit(callOnAccess, p.t.enter())
	p.Policy.OnAccess(id)
}

func (p *tracedPolicy) OnInsert(id cache.PageID) {
	defer p.t.exit(callOnInsert, p.t.enter())
	p.Policy.OnInsert(id)
}

func (p *tracedPolicy) OnRemove(id cache.PageID) {
	defer p.t.exit(callOnRemove, p.t.enter())
	p.Policy.OnRemove(id)
}

func (p *tracedPolicy) OnMiss(id cache.PageID) {
	defer p.t.exit(callOnMiss, p.t.enter())
	p.Policy.OnMiss(id)
}

func (p *tracedPolicy) Victim() (cache.PageID, bool) {
	defer p.t.exit(callVictim, p.t.enter())
	return p.Policy.Victim()
}

// tracedSource and tracedIterator wrap a trace source's reader.
type tracedSource struct {
	trace.Source
	t *Tracer
}

func (s tracedSource) Open() (trace.Iterator, error) {
	defer s.t.exit(callOpen, s.t.enter())
	it, err := s.Source.Open()
	if err != nil {
		return nil, err
	}
	return &tracedIterator{it, s.t}, nil
}

type tracedIterator struct {
	trace.Iterator
	t *Tracer
}

func (it *tracedIterator) Next() (trace.Record, error) {
	defer it.t.exit(callNext, it.t.enter())
	return it.Iterator.Next()
}
