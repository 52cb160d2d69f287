package core

import (
	"compresso/internal/memctl"
	"compresso/internal/metadata"
)

// Registered backend (DESIGN.md §12). Mod is func(*core.Config), set
// as sim.Config.Mods["compresso"] by the ablations.
func init() {
	memctl.RegisterBackend(memctl.Backend{
		Name:         "compresso",
		Desc:         "Compresso: LinePack lines, 8 page sizes, repacking, metadata cache (the paper)",
		MachineBytes: memctl.CompressedMachineBytes,
		Config: func(p memctl.BuildParams) any {
			c := DefaultConfig(p.OSPAPages, p.MachineBytes)
			c.Overlap = p.Overlap // before Mod: ablation hooks may override
			memctl.ApplyMod(p, &c)
			metadata.ScaleCacheForFootprint(&c.MetadataCache, p.FootprintScale)
			return c
		},
		Build: func(config any, p memctl.BuildParams) memctl.Controller {
			c := config.(Config)
			c.Faults = p.Injector
			return New(c, p.Mem, p.Source)
		},
	})
}
