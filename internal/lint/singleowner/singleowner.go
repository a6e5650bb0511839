// Package singleowner verifies that the node-model packages carry no
// concurrency machinery of their own: it flags every import of sync or
// sync/atomic in them.
//
// A node's devices are owned by the goroutine that steps the node. The
// only foreign goroutines that reach them are an ipmi.Server's
// connections, and the server serializes those against the step loop
// with the one lock it is given (see DESIGN.md §5). A device mutex or
// atomic would be a second, hand-kept contract: uncontended cost on
// every step, and a promise of concurrent safety that the rest of the
// node does not keep.
package singleowner

import (
	"strconv"

	"thermctl/internal/lint"
)

// Analyzer is the single-owner check.
var Analyzer = &lint.Analyzer{
	Name:      "singleowner",
	Doc:       "forbid sync and sync/atomic in the node-model packages owned by the stepping goroutine",
	AppliesTo: lint.InPackages(scopePrefixes...),
	Run:       run,
}

// scopePrefixes are the device-model packages a node wires together.
// Unlike shardsafe's scope, the cluster and controller layers are out:
// they own worker pools and fan-in state that do need synchronization.
var scopePrefixes = []string{
	"internal/acpi",
	"internal/adt7467",
	"internal/cpu",
	"internal/cpufreq",
	"internal/cstates",
	"internal/fan",
	"internal/hwmon",
	"internal/i2c",
	"internal/node",
	"internal/power",
	"internal/sensor",
	"internal/thermal",
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || (path != "sync" && path != "sync/atomic") {
				continue
			}
			pass.Reportf(imp.Pos(),
				"node-model package imports %s; its devices are owned by the stepping goroutine, so serialize foreign access at the ipmi.Server lock instead",
				path)
		}
	}
	return nil
}
