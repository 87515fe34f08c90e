// Package hw models the two NVIDIA Jetson platforms of the paper's
// evaluation (TX2 and AGX Xavier) analytically. The paper's mechanism —
// memory-bound blocks waste energy at high GPU frequency, compute-bound
// blocks need it, and static power creates an interior energy-optimal
// frequency — is a property of the latency/power model *shape*; this package
// reproduces that shape with published Jetson frequency ladders and
// first-order CMOS power physics (leakage + C·V²·f dynamic power + DRAM
// energy per byte).
//
// Substitution record (DESIGN.md §3): this package stands in for the real
// boards and tegrastats.
package hw

import "time"

// Platform describes one simulated Jetson board.
//
// A platform must not be modified after its first use: caches key on the
// *Platform pointer (sim's cost grids and flow summaries), so a changed
// field would be served stale costs. Build a new platform instead.
type Platform struct {
	Name string

	// GPU frequency ladder in Hz, ascending (TX2: 13 levels 114–1300 MHz,
	// AGX: 14 levels 114–1377 MHz, the counts the paper reports).
	GPUFreqsHz []float64
	// CPU frequency ladder in Hz, ascending (used by the FPG-C+G baseline).
	CPUFreqsHz []float64

	// Roofline parameters.
	GPUFlopsPerCycle float64       // FLOPs per GPU clock at full occupancy (2·cores)
	ComputeEff       float64       // achievable fraction of peak compute
	MemBandwidth     float64       // peak DRAM bandwidth, bytes/s
	MemEff           float64       // achievable fraction of peak bandwidth
	LaunchOverhead   time.Duration // fixed per-kernel launch cost

	// GPU voltage/frequency curve. Real Jetson rails hold a voltage floor
	// (VMin) up to a knee frequency and then rise steeply into overdrive:
	// V(x) = VMin + (VMax-VMin)·((x-VKnee)/(1-VKnee))^VGamma for normalized
	// frequency x above VKnee, VMin below. The steep overdrive region is
	// what makes the top ladder levels disproportionately expensive.
	VMin, VMax, VGamma, VKnee float64

	// Power model.
	IdleW        float64 // board static power (SoC, regulators, idle DRAM)
	GPULeakW     float64 // GPU leakage at VMin; scales with (V/VMin)²
	GPUCdyn      float64 // effective switched capacitance: W/(V²·Hz) at u=1
	GPUClockFrac float64 // fraction of dynamic power burned by clocking even when stalled on memory
	DRAMEnergyPB float64 // DRAM energy per byte transferred (J/B)

	// CPU power model (host-side preprocessing; FPG-C+G scales this rail).
	CPUVMin, CPUVMax, CPUVGamma float64
	CPULeakW                    float64
	CPUCdyn                     float64
	CPUWorkPerImage             float64 // host cycles per image (pre/post-processing)

	// DVFS switching. The paper's §3.3 microbenchmark (100 level changes,
	// 50 ms average total) measures the end-to-end userspace cost of a
	// frequency write — UserspaceSwitchCost ≈ 0.5 ms per change. Only part
	// of it stalls the GPU pipeline (PLL relock + clock handover), which is
	// SwitchLatency; the syscall itself overlaps GPU execution.
	SwitchLatency       time.Duration
	UserspaceSwitchCost time.Duration
}

// TX2 returns the simulated Jetson TX2 (Pascal, 256 CUDA cores, LPDDR4).
func TX2() *Platform {
	return &Platform{
		Name: "TX2",
		GPUFreqsHz: []float64{ // 13 levels, 114.75–1300.5 MHz (L4T table)
			114.75e6, 216.75e6, 318.75e6, 420.75e6, 522.75e6, 624.75e6,
			726.75e6, 854.25e6, 930.75e6, 1032.75e6, 1122.0e6, 1236.0e6,
			1300.5e6,
		},
		CPUFreqsHz: []float64{ // A57 cluster ladder (subset)
			345.6e6, 499.2e6, 652.8e6, 806.4e6, 960.0e6, 1113.6e6,
			1267.2e6, 1420.8e6, 1574.4e6, 1728.0e6, 1881.6e6, 2035.2e6,
		},
		GPUFlopsPerCycle: 512, // 256 cores × 2 (FMA)
		ComputeEff:       0.55,
		MemBandwidth:     59.7e9,
		MemEff:           0.38,
		LaunchOverhead:   8 * time.Microsecond,

		VMin: 0.58, VMax: 1.18, VGamma: 1.55, VKnee: 0.40,
		IdleW:        1.7,
		GPULeakW:     0.55,
		GPUCdyn:      4.2e-9,
		GPUClockFrac: 0.45,
		DRAMEnergyPB: 45e-12,

		CPUVMin: 0.70, CPUVMax: 1.10, CPUVGamma: 1.3,
		CPULeakW:        0.25,
		CPUCdyn:         1.3e-9,
		CPUWorkPerImage: 6e6, // ~3 ms at 2 GHz: JPEG decode + resize + tensor copy

		SwitchLatency:       60 * time.Microsecond,
		UserspaceSwitchCost: 500 * time.Microsecond,
	}
}

// AGX returns the simulated Jetson AGX Xavier (Volta, 512 CUDA cores).
// Its wider ladder and steeper top-end voltage make running at fmax
// proportionally more wasteful than on TX2 — the reason the paper's BiM
// gains are about twice as large on AGX.
func AGX() *Platform {
	return &Platform{
		Name: "AGX",
		GPUFreqsHz: []float64{ // 14 levels, 114.75–1377 MHz (L4T table)
			114.75e6, 216.75e6, 318.75e6, 420.75e6, 522.75e6, 624.75e6,
			675.75e6, 828.75e6, 905.25e6, 1032.75e6, 1198.5e6, 1236.75e6,
			1338.75e6, 1377.0e6,
		},
		CPUFreqsHz: []float64{ // Carmel ladder (subset)
			115.2e6, 422.4e6, 729.6e6, 1036.8e6, 1190.4e6, 1344.0e6,
			1497.6e6, 1651.2e6, 1804.8e6, 1958.4e6, 2112.0e6, 2265.6e6,
		},
		GPUFlopsPerCycle: 1024, // 512 cores × 2
		ComputeEff:       0.55,
		MemBandwidth:     137e9,
		MemEff:           0.42,
		LaunchOverhead:   6 * time.Microsecond,

		VMin: 0.52, VMax: 1.28, VGamma: 1.65, VKnee: 0.40,
		IdleW:        2.6,
		GPULeakW:     0.90,
		GPUCdyn:      8.0e-9,
		GPUClockFrac: 0.45,
		DRAMEnergyPB: 32e-12,

		CPUVMin: 0.65, CPUVMax: 1.12, CPUVGamma: 1.4,
		CPULeakW:        0.45,
		CPUCdyn:         2.1e-9,
		CPUWorkPerImage: 6e6,

		SwitchLatency:       60 * time.Microsecond,
		UserspaceSwitchCost: 500 * time.Microsecond,
	}
}

// Platforms returns both evaluation platforms in paper order (TX2, AGX).
func Platforms() []*Platform { return []*Platform{TX2(), AGX()} }

// NumGPULevels returns the number of GPU DVFS levels.
func (p *Platform) NumGPULevels() int { return len(p.GPUFreqsHz) }

// MaxGPUFreq returns the top of the GPU ladder.
func (p *Platform) MaxGPUFreq() float64 { return p.GPUFreqsHz[len(p.GPUFreqsHz)-1] }

// MinGPUFreq returns the bottom of the GPU ladder.
func (p *Platform) MinGPUFreq() float64 { return p.GPUFreqsHz[0] }

// ClampGPULevel clamps a level index into the valid ladder range.
func (p *Platform) ClampGPULevel(level int) int {
	if level < 0 {
		return 0
	}
	if level >= len(p.GPUFreqsHz) {
		return len(p.GPUFreqsHz) - 1
	}
	return level
}

// NearestGPULevel returns the ladder index whose frequency is closest to f.
func (p *Platform) NearestGPULevel(f float64) int {
	best, bestD := 0, -1.0
	for i, lf := range p.GPUFreqsHz {
		d := lf - f
		if d < 0 {
			d = -d
		}
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
