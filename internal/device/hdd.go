package device

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// HDDConfig describes a mechanical disk. The defaults (DefaultHDD)
// approximate the Maxtor 7L250S0 SATA drive from the paper's testbed:
// 250 GB, 7200 RPM, ~9 ms average seek, ~65 MB/s sustained transfer.
type HDDConfig struct {
	Name           string
	CapacityBytes  int64
	RPM            float64
	TrackToTrackMs float64 // minimum (adjacent-track) seek
	FullStrokeMs   float64 // maximum (end-to-end) seek
	TransferMBps   float64 // sustained media rate
	NoiseFrac      float64 // relative stddev applied to mechanical time
	// CommandOverhead is the fixed controller/protocol cost per
	// request, independent of mechanics.
	CommandOverhead sim.Time
}

// DefaultHDD returns the paper-testbed disk model.
func DefaultHDD() HDDConfig {
	return HDDConfig{
		Name:            "maxtor-7l250s0",
		CapacityBytes:   250 << 30,
		RPM:             7200,
		TrackToTrackMs:  0.8,
		FullStrokeMs:    17.0,
		TransferMBps:    65,
		NoiseFrac:       0.06,
		CommandOverhead: 40 * sim.Microsecond,
	}
}

// HDD is a mechanical disk model: seek time grows with the square root
// of seek distance (the classic Ruemmler–Wilkes shape), a uniformly
// distributed rotational delay applies to any non-sequential access,
// and sequential streams transfer at the media rate with neither seek
// nor rotation. Mechanical time gets multiplicative Gaussian noise so
// that disk-bound benchmark phases show the run-to-run variance the
// paper reports.
type HDD struct {
	cfg     HDDConfig
	sectors int64
	rng     *sim.RNG

	busyUntil sim.Time
	headLBA   int64 // sector under the head after the last request
	stats     Stats
}

// NewHDD builds an HDD from cfg, drawing noise from rng. The rng must
// not be shared with other components.
func NewHDD(cfg HDDConfig, rng *sim.RNG) *HDD {
	if cfg.CapacityBytes <= 0 {
		panic("device: HDD with non-positive capacity")
	}
	if cfg.RPM <= 0 || cfg.TransferMBps <= 0 {
		panic("device: HDD with non-positive RPM or transfer rate")
	}
	return &HDD{cfg: cfg, sectors: cfg.CapacityBytes / SectorSize, rng: rng}
}

// Name implements Device.
func (h *HDD) Name() string { return h.cfg.Name }

// Sectors implements Device.
func (h *HDD) Sectors() int64 { return h.sectors }

// MinLatency implements Device: the fixed per-command controller
// overhead is added after the (non-negative) noised mechanical and
// transfer time, so no successful request can finish faster.
func (h *HDD) MinLatency() sim.Time { return h.cfg.CommandOverhead }

// Stats implements Device.
func (h *HDD) Stats() Stats { return h.stats }

// ResetStats implements Device.
func (h *HDD) ResetStats() { h.stats = Stats{} }

// rotationPeriod returns the time of one platter revolution.
func (h *HDD) rotationPeriod() float64 { // seconds
	return 60.0 / h.cfg.RPM
}

// seekTime returns the repositioning time for a move of dist sectors.
func (h *HDD) seekTime(dist int64) float64 { // seconds
	if dist == 0 {
		return 0
	}
	frac := float64(dist) / float64(h.sectors)
	if frac > 1 {
		frac = 1
	}
	t2t := h.cfg.TrackToTrackMs / 1e3
	full := h.cfg.FullStrokeMs / 1e3
	return t2t + (full-t2t)*math.Sqrt(frac)
}

// Submit implements Device.
func (h *HDD) Submit(at sim.Time, req Request) (sim.Time, error) {
	if err := validate(req, h.sectors); err != nil {
		h.stats.Errors++
		return at, err
	}
	start := at
	if h.busyUntil > start {
		h.stats.QueueWait += h.busyUntil - start
		start = h.busyUntil
	}

	var mech float64 // seconds of mechanical positioning
	sequential := req.LBA == h.headLBA
	if !sequential {
		dist := req.LBA - h.headLBA
		if dist < 0 {
			dist = -dist
		}
		mech = h.seekTime(dist) + h.rng.Float64()*h.rotationPeriod()
		h.stats.Seeks++
		h.stats.SeekSectors += dist
	}
	transfer := float64(req.Sectors*SectorSize) / (h.cfg.TransferMBps * 1e6)
	service := mech + transfer
	if h.cfg.NoiseFrac > 0 && service > 0 {
		service *= h.rng.NormalClamped(1, h.cfg.NoiseFrac, 0.5, 2)
	}
	serviceTime := sim.Time(service*1e9) + h.cfg.CommandOverhead

	done := start + serviceTime
	h.busyUntil = done
	h.headLBA = req.LBA + req.Sectors
	h.stats.BusyTime += serviceTime
	switch req.Op {
	case Read:
		h.stats.Reads++
		h.stats.SectorsRead += req.Sectors
	case Write:
		h.stats.Writes++
		h.stats.SectorsWrite += req.Sectors
	}
	return done, nil
}

var _ Device = (*HDD)(nil)

// String describes the configuration.
func (c HDDConfig) String() string {
	return fmt.Sprintf("%s (%d GB, %.0f RPM, %.0f MB/s)",
		c.Name, c.CapacityBytes>>30, c.RPM, c.TransferMBps)
}
