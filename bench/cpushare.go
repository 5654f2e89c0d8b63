package main

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"cablevod/internal/perf"
)

// moduleLayers are the repository's modules whose flat CPU share a
// traced run reports; stdLayers group the standard library the engine
// and the daemon lean on. Everything else is "other", so shares sum to 1.
var (
	moduleLayers = []string{"core", "eventq", "cache", "hfc", "metrics", "popularity", "segment",
		"synth", "scenario", "randdist", "telemetry", "serve", "universe"}
	stdLayers   = []string{"runtime", "encoding_json", "encoding_gob", "net"}
	shareLayers = append(append(slices.Clone(moduleLayers), stdLayers...), "other")
)

// packageOf strips the function, receiver and type arguments from a
// profiled symbol, leaving its import path.
func packageOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// layerOf maps a profiled symbol to its share layer.
func layerOf(sym string) string {
	pkg := packageOf(sym)
	if mod, ok := strings.CutPrefix(pkg, "cablevod/internal/"); ok {
		mod, _, _ = strings.Cut(mod, "/")
		if slices.Contains(moduleLayers, mod) {
			return mod
		}
		return "other"
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "encoding/gob":
		return "encoding_gob"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net"
	}
	return "other"
}

// cpuShares accumulates flat CPU time per layer over several profiles.
type cpuShares map[string]int64

// add folds one pprof CPU profile into the totals.
func (c cpuShares) add(raw []byte) error {
	p, err := perf.Parse(raw)
	if err != nil {
		return err
	}
	idx := p.ValueIndex("cpu")
	if idx < 0 {
		return fmt.Errorf("profile has no cpu samples")
	}
	for _, s := range p.Top(math.MaxInt, idx) {
		c[layerOf(s.Name)] += s.Flat
	}
	return nil
}

// share returns layer's fraction of all flat CPU time (0 with no samples).
func (c cpuShares) share(layer string) float64 {
	var total int64
	for _, v := range c {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(c[layer]) / float64(total)
}
