package hsvital

import (
	"fmt"
	"sync"
)

// Controller is the low-level controller of the HS abstraction (paper
// Fig. 7): it owns the physical FPGAs and configures virtual blocks on
// request from the framework's system controller. It tracks only block
// occupancy; which tenant owns which blocks is the runtime manager's
// bookkeeping.
type Controller struct {
	mu    sync.Mutex
	fpgas []PhysFPGA
}

// PhysFPGA is one physical device in the cluster.
type PhysFPGA struct {
	// ID is the device's index in the cluster (also its ring position).
	ID int
	// Spec is the device's virtual-block abstraction, shared read-only by
	// every device of its type.
	Spec *Spec
	// free is the number of unoccupied virtual blocks.
	free int
}

// FreeBlocks returns the number of unoccupied virtual blocks.
func (f *PhysFPGA) FreeBlocks() int { return f.free }

// NewController builds a controller over the given cluster composition,
// e.g. resource.PaperCluster(). Devices are ordered largest type first,
// and IDs define the ring positions.
func NewController(spec map[string]int) (*Controller, error) {
	total := 0
	for _, n := range spec {
		total += n
	}
	c := &Controller{fpgas: make([]PhysFPGA, 0, total)}
	for _, s := range AllSpecs() {
		n := spec[s.Device.Name]
		for i := 0; i < n; i++ {
			c.fpgas = append(c.fpgas, PhysFPGA{
				ID:   len(c.fpgas),
				Spec: &s,
				free: s.BlocksPerDevice,
			})
		}
	}
	// Reject unknown device names.
	for name := range spec {
		if _, err := SpecFor(name); err != nil {
			return nil, err
		}
	}
	if len(c.fpgas) == 0 {
		return nil, fmt.Errorf("hsvital: empty cluster")
	}
	return c, nil
}

// Devices returns the controller's own device table, fixed at construction.
// Callers must not mutate it, and must order FreeBlocks reads against
// Configure and Release themselves (rms.Service does, under its lock).
func (c *Controller) Devices() []PhysFPGA { return c.fpgas }

// Configure occupies n virtual blocks on device id (the "configure FPGA"
// request of Fig. 7). It fails without side effects if the device lacks
// free blocks.
func (c *Controller) Configure(id, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.fpgas) {
		return fmt.Errorf("hsvital: device %d out of range", id)
	}
	if n <= 0 {
		return fmt.Errorf("hsvital: configure %d blocks", n)
	}
	f := &c.fpgas[id]
	if f.free < n {
		return fmt.Errorf("hsvital: device %d has %d free blocks, need %d", id, f.free, n)
	}
	f.free -= n
	return nil
}

// Release frees n virtual blocks on device id.
func (c *Controller) Release(id, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.fpgas) {
		return fmt.Errorf("hsvital: device %d out of range", id)
	}
	f := &c.fpgas[id]
	if n <= 0 || f.free+n > f.Spec.BlocksPerDevice {
		return fmt.Errorf("hsvital: release %d blocks on device %d with %d free of %d",
			n, id, f.free, f.Spec.BlocksPerDevice)
	}
	f.free += n
	return nil
}

// Utilization returns occupied/total virtual blocks across the cluster.
func (c *Controller) Utilization() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total, free := 0, 0
	for _, f := range c.fpgas {
		total += f.Spec.BlocksPerDevice
		free += f.free
	}
	if total == 0 {
		return 0
	}
	return float64(total-free) / float64(total)
}
