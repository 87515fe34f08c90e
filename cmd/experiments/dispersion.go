package main

// Dispersion diagnostic: per model, split the graph at spatial-resolution
// changes and report each segment's oracle level, energy share and
// memory-bound time share. Healthy reproduction needs segments whose oracle
// levels differ by several ladder steps with non-trivial energy shares —
// that dispersion is what per-block DVFS (and the P-N ablation gap) feeds on.

import (
	"fmt"

	"powerlens/internal/graph"
	"powerlens/internal/hw"
	"powerlens/internal/models"
	"powerlens/internal/sim"
)

func runDispersion() {
	for _, p := range hw.Platforms() {
		fmt.Printf("=== %s ===\n", p.Name)
		for _, name := range models.Names() {
			g := models.MustBuild(name)
			grid := sim.NewCostGrid(p, g, 1)
			top := p.NumGPULevels() - 1
			bounds := []int{0}
			prevH := g.Layers[0].OutShape.H
			for _, l := range g.Layers {
				if l.OutShape.H != prevH && l.OutShape.H >= 1 {
					bounds = append(bounds, l.ID)
					prevH = l.OutShape.H
				}
			}
			bounds = append(bounds, len(g.Layers))
			fmt.Printf("%s:\n", name)
			var totalE float64
			type seg struct {
				s, e, lvl int
				energy    float64
				memShare  float64
			}
			var segs []seg
			for i := 0; i+1 < len(bounds); i++ {
				s, e := bounds[i], bounds[i+1]-1
				if e < s {
					continue
				}
				lvl, es := sim.OptimalSegmentLevel(p, g, s, e)
				var memT, totT float64
				for id := s; id <= e; id++ {
					l := g.Layers[id]
					if l.Kind == graph.OpInput {
						continue
					}
					c := grid.Cost(top, id)
					totT += c.Time.Seconds()
					memT += c.Time.Seconds() * (1 - c.ComputeUt)
				}
				ms := 0.0
				if totT > 0 {
					ms = memT / totT
				}
				segs = append(segs, seg{s, e, lvl, es[lvl], ms})
				totalE += es[lvl]
			}
			for _, sg := range segs {
				fmt.Printf("  [%4d-%4d] lvl=%2d Eshare=%4.1f%% memshare=%.2f\n",
					sg.s, sg.e, sg.lvl, 100*sg.energy/totalE, sg.memShare)
			}
		}
	}
}
