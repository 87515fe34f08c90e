package hw

// PowerBreakdown decomposes the simulated rail power of one operator into
// its physical components — useful for understanding why a block prefers a
// given frequency (which component dominates) and for the documentation
// figures.
type PowerBreakdown struct {
	IdleW    float64 // board static power
	LeakW    float64 // GPU leakage (∝ V²)
	DynamicW float64 // switching power C·V²·f scaled by activity
	DRAMW    float64 // DRAM transfer power
}

// TotalW returns the summed rail power.
func (b PowerBreakdown) TotalW() float64 {
	return b.IdleW + b.LeakW + b.DynamicW + b.DRAMW
}

// GPUOpBreakdown returns the per-component power draw of executing the given
// work at frequency f. The components sum to GPUOpCost's PowerW.
func (p *Platform) GPUOpBreakdown(flops, bytes int64, f float64) PowerBreakdown {
	ft := p.GPUTermsAt(f)
	c := p.GPUOpCostAt(ft, flops, bytes)
	dyn := ft.cv2f * (p.GPUClockFrac + (1-p.GPUClockFrac)*c.ComputeUt)
	dram := 0.0
	if t := c.Time.Seconds(); t > 0 {
		dram = p.DRAMEnergyPB * float64(bytes) / t
	}
	return PowerBreakdown{IdleW: p.IdleW, LeakW: ft.leakW, DynamicW: dyn, DRAMW: dram}
}
