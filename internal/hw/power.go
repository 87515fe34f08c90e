package hw

import (
	"math"
	"time"
)

// GPUVoltage returns the rail voltage at GPU frequency f, interpolating the
// V–f curve: V = VMin + (VMax-VMin)·((f-fmin)/(fmax-fmin))^VGamma.
func (p *Platform) GPUVoltage(f float64) float64 {
	return kneeVoltage(f, p.MinGPUFreq(), p.MaxGPUFreq(), p.VMin, p.VMax, p.VGamma, p.VKnee)
}

// kneeVoltage implements the floor-then-overdrive V-f curve: the rail stays
// at vmin up to the knee (normalized frequency), then rises to vmax with
// exponent gamma.
func kneeVoltage(f, fmin, fmax, vmin, vmax, gamma, knee float64) float64 {
	if f <= fmin {
		return vmin
	}
	if f >= fmax {
		return vmax
	}
	x := (f - fmin) / (fmax - fmin)
	if x <= knee {
		return vmin
	}
	u := (x - knee) / (1 - knee)
	return vmin + (vmax-vmin)*math.Pow(u, gamma)
}

// CPUVoltage returns the CPU rail voltage at CPU frequency f.
func (p *Platform) CPUVoltage(f float64) float64 {
	lo := p.CPUFreqsHz[0]
	hi := p.CPUFreqsHz[len(p.CPUFreqsHz)-1]
	return voltage(f, lo, hi, p.CPUVMin, p.CPUVMax, p.CPUVGamma)
}

func voltage(f, fmin, fmax, vmin, vmax, gamma float64) float64 {
	if f <= fmin {
		return vmin
	}
	if f >= fmax {
		return vmax
	}
	x := (f - fmin) / (fmax - fmin)
	return vmin + (vmax-vmin)*math.Pow(x, gamma)
}

// OpCost is the simulated execution cost of one operator (or any chunk of
// work) on the GPU at a fixed frequency.
type OpCost struct {
	Time      time.Duration
	EnergyJ   float64
	PowerW    float64 // average power over Time
	ComputeUt float64 // fraction of time the ALUs were the bottleneck
}

// OverlapBeta is the fraction of the shorter roofline phase that fails to
// hide under the longer one: t = max(tc, tm) + β·min(tc, tm). Real kernels
// overlap compute and memory imperfectly, so an operator's frequency
// sensitivity d log t / d log f varies continuously with its arithmetic
// intensity instead of snapping between 0 and 1 — which is what spreads
// per-block optimal frequencies across the ladder.
const OverlapBeta = 0.35

// GPUTerms are the frequency-dependent factors of the GPU cost model at one
// frequency: everything GPUOpCost and GPUIdlePower derive from f alone, the
// V–f curve's math.Pow included. A cost table evaluates them once per ladder
// level and then prices each op with GPUOpCostAt; every product is formed in
// the same order as in GPUOpCost, so the results carry the same bits.
type GPUTerms struct {
	rate  float64 // achievable FLOP/s: ComputeEff·GPUFlopsPerCycle·f
	leakW float64 // GPU leakage at V(f)
	cv2f  float64 // dynamic power at full clock activity: Cdyn·V²·f
}

// GPUTermsAt evaluates the per-frequency terms of the GPU cost model at f.
func (p *Platform) GPUTermsAt(f float64) GPUTerms {
	v := p.GPUVoltage(f)
	return GPUTerms{
		rate:  p.ComputeEff * p.GPUFlopsPerCycle * f,
		leakW: p.GPULeakW * (v / p.VMin) * (v / p.VMin),
		cv2f:  p.GPUCdyn * v * v * f,
	}
}

// GPUOpCost returns the roofline latency and energy of executing `flops`
// floating-point operations touching `bytes` of DRAM at GPU frequency f.
//
// Latency: partial-overlap roofline (see OverlapBeta) + kernel launch
// overhead. Memory bandwidth is modeled as frequency-independent (the DRAM
// clock is a separate domain on Jetson), which is exactly why memory-bound
// operators tolerate low GPU frequency — the effect PowerLens exploits.
//
// Power: board idle + GPU leakage (∝V²) + dynamic C·V²·f scaled by compute
// utilization (with a clocking floor while busy) + DRAM energy per byte.
func (p *Platform) GPUOpCost(flops, bytes int64, f float64) OpCost {
	return p.GPUOpCostAt(p.GPUTermsAt(f), flops, bytes)
}

// GPUOpCostAt is GPUOpCost with the frequency-dependent terms evaluated
// already (see GPUTerms): the per-op part of the model.
func (p *Platform) GPUOpCostAt(ft GPUTerms, flops, bytes int64) OpCost {
	tc := float64(flops) / ft.rate
	tm := float64(bytes) / (p.MemEff * p.MemBandwidth)
	t := tc + OverlapBeta*tm
	if tm > tc {
		t = tm + OverlapBeta*tc
	}
	t += p.LaunchOverhead.Seconds()
	if t <= 0 {
		t = 1e-9
	}
	uComp := 0.0
	if t > 0 {
		uComp = tc / t
	}

	dyn := ft.cv2f * (p.GPUClockFrac + (1-p.GPUClockFrac)*uComp)
	dramW := 0.0
	if t > 0 {
		dramW = p.DRAMEnergyPB * float64(bytes) / t
	}
	power := p.IdleW + ft.leakW + dyn + dramW
	return OpCost{
		Time:      time.Duration(t * float64(time.Second)),
		EnergyJ:   power * t,
		PowerW:    power,
		ComputeUt: uComp,
	}
}

// GPUIdlePower returns the power drawn while the GPU sits idle at frequency
// f (board idle + leakage + clock-tree dynamic power). Reactive governors
// pay this during the lag between load arrival and their response.
func (p *Platform) GPUIdlePower(f float64) float64 {
	return p.GPUIdlePowerAt(p.GPUTermsAt(f))
}

// GPUIdlePowerAt is GPUIdlePower with the frequency-dependent terms
// evaluated already.
func (p *Platform) GPUIdlePowerAt(ft GPUTerms) float64 {
	dyn := ft.cv2f * p.GPUClockFrac * 0.5 // gated clocks while idle
	return p.IdleW + ft.leakW + dyn
}

// CPUBusyPower returns CPU rail power while running at frequency f.
func (p *Platform) CPUBusyPower(f float64) float64 {
	v := p.CPUVoltage(f)
	leak := p.CPULeakW * (v / p.CPUVMin) * (v / p.CPUVMin)
	return leak + p.CPUCdyn*v*v*f
}

// CPUImageCost returns the host-side time and energy to pre/post-process one
// image at CPU frequency f.
func (p *Platform) CPUImageCost(f float64) (time.Duration, float64) {
	t := p.CPUWorkPerImage / f
	e := p.CPUBusyPower(f) * t
	return time.Duration(t * float64(time.Second)), e
}

// SwitchCost returns the time and energy cost of one userspace DVFS level
// change (the pipeline stalls for SwitchLatency at roughly idle power).
func (p *Platform) SwitchCost(f float64) (time.Duration, float64) {
	t := p.SwitchLatency.Seconds()
	return p.SwitchLatency, p.GPUIdlePower(f) * t
}
