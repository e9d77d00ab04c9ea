package main

import (
	_ "embed"
	"encoding/json"
)

// golden.json maps each sim-fused corpus job ("<profile>/<trace seed>")
// to the digest of its online and reference series and pipeline counters,
// as recorded from a known-good build. Every sim-fused job, untraced or
// traced, must reproduce it.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]string {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("perfbench: golden.json: " + err.Error())
	}
	return g
}()
