package lcp

import (
	"compresso/internal/memctl"
	"compresso/internal/metadata"
)

// Registered backends (DESIGN.md §12). Mod is func(*lcp.Config), set
// as sim.Config.Mods["lcp"] or Mods["lcp-align"]; it applies to the
// variant it is keyed by.
func init() {
	register := func(name, desc string, base func(ospaPages int, machineBytes int64) Config) {
		memctl.RegisterBackend(memctl.Backend{
			Name:         name,
			Desc:         desc,
			MachineBytes: memctl.CompressedMachineBytes,
			Config: func(p memctl.BuildParams) any {
				c := base(p.OSPAPages, p.MachineBytes)
				memctl.ApplyMod(p, &c)
				metadata.ScaleCacheForFootprint(&c.MetadataCache, p.FootprintScale)
				return c
			},
			Build: func(config any, p memctl.BuildParams) memctl.Controller {
				return New(config.(Config), p.Mem, p.Source)
			},
		})
	}
	register("lcp", "Linearly Compressed Pages baseline (Pekhimenko et al.)", DefaultConfig)
	register("lcp-align", "LCP with Compresso's alignment-friendly line sizes", AlignConfig)
}
