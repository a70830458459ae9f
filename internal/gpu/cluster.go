package gpu

import "darknight/internal/field"

// Cluster is the K' accelerator fleet of the system model (§3). Jobs reach
// its devices through a BlockFlight (BeginBlock) — each coded input goes to
// exactly one device ("each GPU receives at most one encoded data") — and
// results gather in device order.
type Cluster struct {
	devices []Device
}

// NewCluster assembles a cluster from devices.
func NewCluster(devices ...Device) *Cluster {
	return &Cluster{devices: devices}
}

// NewHonestCluster creates n honest devices.
func NewHonestCluster(n int) *Cluster {
	devs := make([]Device, n)
	for i := range devs {
		devs[i] = NewHonest(i)
	}
	return NewCluster(devs...)
}

// Size returns the device count K'.
func (c *Cluster) Size() int { return len(c.devices) }

// Device returns device i.
func (c *Cluster) Device(i int) Device { return c.devices[i] }

// ForwardAll ships one layer on a flight over the first len(coded) devices
// and waits for every result, in device order. The leading string is
// unused: it remains only because the benchmark harness under bench/ still
// passes it.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (c *Cluster) ForwardAll(_ string, kernel LinearKernel, coded []field.Vec) ([]field.Vec, error) {
	flight, err := c.BeginBlock(len(coded))
	if err != nil {
		return nil, err
	}
	defer flight.End()
	p, err := flight.ForwardLayer("", kernel, coded)
	if err != nil {
		return nil, err
	}
	return p.Wait(), nil
}

// BackwardAll ships one layer's gradient equations on a flight over the
// first len(deltas) devices and waits for every result. A gradient job
// reads the coded input its flight kept from a forward job, so the flight
// first ships an identity forward of the deltas themselves: device j
// computes the kernel on (deltas[j], deltas[j]). The leading string is
// unused: it remains only because the benchmark harness under bench/ still
// passes it.
//
//lint:ignore testonly called by bench/benchkit; retarget in a benchmark PR (ROADMAP 1b/12)
func (c *Cluster) BackwardAll(_ string, kernel BilinearKernel, deltas []field.Vec) ([]field.Vec, error) {
	flight, err := c.BeginBlock(len(deltas))
	if err != nil {
		return nil, err
	}
	defer flight.End()
	flight.KeepInputs()
	fwd, err := flight.ForwardLayer("", func(x field.Vec) field.Vec { return x }, deltas)
	if err != nil {
		return nil, err
	}
	p, err := flight.GradLayer(fwd, kernel, deltas, nil)
	if err != nil {
		return nil, err
	}
	return p.Wait(), nil
}

// TotalTraffic sums channel counters across devices.
func (c *Cluster) TotalTraffic() Traffic {
	var t Traffic
	for _, d := range c.devices {
		dt := d.Traffic()
		t.BytesIn += dt.BytesIn
		t.BytesOut += dt.BytesOut
		t.Jobs += dt.Jobs
	}
	return t
}
