// Package fixture seeds device.Request literals with and without the
// Owner field.
package fixture

import "repro/internal/device"

func unstamped() device.Request {
	return device.Request{Op: device.Read, LBA: 0, Sectors: 8} // want "device.Request literal without Owner"
}

func unstampedEmpty() device.Request {
	return device.Request{} // want "device.Request literal without Owner"
}

func unstampedPointer() *device.Request {
	return &device.Request{Op: device.Write, LBA: 64, Sectors: 8} // want "device.Request literal without Owner"
}

func stamped(owner int) device.Request {
	return device.Request{Op: device.Read, LBA: 0, Sectors: 8, Owner: owner}
}

// positional literals must list every field, Owner included.
func positional() device.Request {
	return device.Request{device.Read, 0, 8, device.OwnerDaemon}
}

// mount mimics the vfs stamping protocol: a literal handed directly
// to a stamping sink is filled with the running process's identity
// inside the callee.
type mount struct{ owner int }

func (m *mount) submitSync(r device.Request)   { r.Owner = m.owner }
func (m *mount) submitAsync(r *device.Request) { r.Owner = m.owner }

func throughSink(m *mount) {
	m.submitSync(device.Request{Op: device.Read, LBA: 0, Sectors: 8})
	m.submitAsync(&device.Request{Op: device.Write, LBA: 8, Sectors: 8})
}

func suppressed() device.Request {
	//fslint:ignore ownerstamp raw-device probe outside any scheduler; identity cannot apply
	return device.Request{Op: device.Read, LBA: 0, Sectors: 8}
}
