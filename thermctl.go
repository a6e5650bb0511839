// Package thermctl is a system-level, unified in-band and out-of-band
// dynamic thermal control framework — a from-scratch reproduction of
// Li, Ge and Cameron, "System-level, Unified In-band and Out-of-band
// Dynamic Thermal Control" (ICPP 2010) — together with the complete
// simulated cluster substrate its evaluation requires.
//
// # What it provides
//
//   - A deterministic simulated server node: DVFS-capable CPU (Athlon64
//     4000+ P-states), RC thermal network, PWM fan behind an ADT7467
//     fan controller on an i2c bus, lm-sensors-grade thermal sensor,
//     a virtual sysfs exposing hwmon and cpufreq attribute files
//     (the in-band path), and an IPMI-style BMC (the out-of-band path).
//   - A barrier-synchronized cluster executing NPB-like SPMD programs,
//     so DVFS decisions become measurable execution time.
//   - The paper's contribution: the two-level temperature history
//     window, the Pp-driven thermal control array, a unified controller
//     over any set of actuators, the tDVFS daemon, and the Hybrid
//     coordinator that couples the fan and DVFS knobs under one policy.
//   - The paper's baselines: traditional static fan control, constant
//     fan speed, and the CPUSPEED utilization governor, selected by
//     name in a Scenario's control spec.
//   - An experiment harness regenerating every figure and table of the
//     paper's evaluation (run `go test -bench .` or cmd/experiments).
//
// # Quickstart
//
//	n, _ := thermctl.NewNode("n0", 1)
//	ctl, _ := thermctl.NewDynamicFanControl(n, 50, 100) // Pp=50, full fan
//	n.SetGenerator(thermctl.CPUBurn(2))
//	for i := 0; i < 1200; i++ { // five simulated minutes
//		n.Step(250 * time.Millisecond)
//		ctl.OnStep(n.Elapsed())
//	}
//	fmt.Printf("die %.1f °C at %.0f%% duty\n", n.TrueDieC(), n.Fan.Duty())
//
// The controllers act only through the node's virtual sysfs files and
// BMC commands, never on simulator internals, so porting them to a real
// Linux host is a matter of pointing the ports at /sys and /dev/ipmi0.
package thermctl

import (
	"thermctl/internal/cluster"
	"thermctl/internal/config"
	"thermctl/internal/core"
	"thermctl/internal/core/ctlarray"
	"thermctl/internal/core/window"
	"thermctl/internal/experiment"
	"thermctl/internal/node"
	"thermctl/internal/rng"
	"thermctl/internal/workload"
)

// Version identifies the library release.
const Version = "1.0.0"

// Re-exported core types. The concrete implementations live in internal
// packages; these aliases are the supported public surface.
type (
	// Node is one simulated server: CPU, fan, thermal network, sensors,
	// ADT7467, virtual sysfs, BMC and power meter.
	Node = node.Node
	// NodeConfig configures a Node.
	NodeConfig = node.Config
	// Cluster is a set of nodes stepped in lock-step, able to run
	// barrier-synchronized SPMD programs.
	Cluster = cluster.Cluster
	// RunResult summarizes one program execution on a cluster.
	RunResult = cluster.RunResult
	// Controller is the paper's unified dynamic thermal controller.
	Controller = core.Controller
	// ControllerConfig parameterizes a Controller.
	ControllerConfig = core.Config
	// TDVFS is the temperature-aware DVFS daemon of the paper's §4.3.
	TDVFS = core.TDVFS
	// TDVFSConfig parameterizes a TDVFS daemon.
	TDVFSConfig = core.TDVFSConfig
	// Hybrid couples a fan Controller and a TDVFS daemon under one
	// policy with explicit coordination (§4.4).
	Hybrid = core.Hybrid
	// Window is the two-level temperature history (§3.2.1).
	Window = window.Window
	// WindowConfig sizes a Window.
	WindowConfig = window.Config
	// ControlArray is the thermal control array (§3.2.2).
	ControlArray = ctlarray.Array
	// Actuator is one thermal control technique unified under the
	// control array.
	Actuator = core.Actuator
	// Engine steps an ordered set of control bindings; every controller
	// in this module is a policy bound into one of these.
	Engine = core.Engine
	// Binding is one engine lane: sample → window → policy → actuators,
	// with fault retry, fail-safe escalation and metrics handled once.
	Binding = core.Binding
	// BindingConfig wires a Binding.
	BindingConfig = core.BindingConfig
	// ControlPolicy is the decision law a Binding runs each control
	// round (the paper's array walk, the tDVFS thresholds, ...).
	ControlPolicy = core.Policy
	// Txn is the actuation transaction a policy decides through; every
	// apply funnels into shared error accounting.
	Txn = core.Txn
	// CtlArrayPolicy is the thermal-control-array decision law (§3.2.2)
	// as a reusable policy.
	CtlArrayPolicy = core.CtlArrayPolicy
	// ThresholdPolicy is the tDVFS threshold/trend decision law (§4.3)
	// as a reusable policy.
	ThresholdPolicy = core.ThresholdPolicy
	// Scenario is the declarative deployment description consumed by
	// thermctld, clustersim and the experiment harness alike.
	Scenario = config.Scenario
	// Rig is a built Scenario: cluster, controllers, faults, metrics.
	Rig = config.Rig
	// Program is a closed-loop SPMD application.
	Program = workload.Program
	// Generator is an open-loop utilization source.
	Generator = workload.Generator
)

// Policy bounds for the Pp parameter, from the paper.
const (
	PpMin = ctlarray.PpMin
	PpMax = ctlarray.PpMax
)

// NewNode builds a simulated server with the paper's platform defaults
// (Athlon64 4000+, 4300 RPM fan, calibrated RC thermal network),
// deterministically seeded.
func NewNode(name string, seed uint64) (*Node, error) {
	return node.New(node.DefaultConfig(name, seed))
}

// NewNodeWithConfig builds a node from an explicit configuration.
func NewNodeWithConfig(cfg NodeConfig) (*Node, error) { return node.New(cfg) }

// DefaultNodeConfig returns the paper-platform node configuration.
func DefaultNodeConfig(name string, seed uint64) NodeConfig {
	return node.DefaultConfig(name, seed)
}

// NewCluster builds an n-node cluster stepping at the standard
// experiment resolution.
func NewCluster(n int, seed uint64) (*Cluster, error) {
	return cluster.New(n, cluster.DefaultDt, seed)
}

// buildNode wires the named techniques on n through
// config.ControlSpec.BuildNode, the one constructor of a controller
// stack, at policy pp with the fan capped at maxDuty percent. The tuning
// is validated first: BuildNode normalizes, which would quietly turn a
// zero Pp into the default.
func buildNode(n *Node, fan, dvfs, sleep string, pp int, maxDuty float64) (*config.NodeControl, error) {
	tune := config.Default()
	tune.Pp, tune.MaxFanDuty = pp, maxDuty
	if err := tune.Validate(); err != nil {
		return nil, err
	}
	cs := config.ControlSpec{Fan: fan, DVFS: dvfs, Sleep: sleep, Tuning: tune}
	return cs.BuildNode(n, config.NodeOptions{})
}

// NewDynamicFanControl attaches the paper's history-based dynamic fan
// controller to a node: policy pp in [1,100], fan duty capped at
// maxDuty percent in [1,100]. Drive it by calling OnStep after each
// node Step.
func NewDynamicFanControl(n *Node, pp int, maxDuty float64) (*Controller, error) {
	nc, err := buildNode(n, "dynamic", "none", "none", pp, maxDuty)
	if err != nil {
		return nil, err
	}
	return nc.Fan, nil
}

// NewTDVFS attaches the temperature-aware DVFS daemon to a node with
// the paper's parameters (51 °C threshold) at policy pp.
func NewTDVFS(n *Node, pp int) (*TDVFS, error) {
	nc, err := buildNode(n, "auto", "tdvfs", "none", pp, 100)
	if err != nil {
		return nil, err
	}
	return nc.TDVFS, nil
}

// NewUnified attaches the full unified controller to a node: dynamic
// fan control and tDVFS coordinated under one policy pp, fan capped at
// maxDuty percent.
func NewUnified(n *Node, pp int, maxDuty float64) (*Hybrid, error) {
	nc, err := buildNode(n, "dynamic", "tdvfs", "none", pp, maxDuty)
	if err != nil {
		return nil, err
	}
	return nc.Hybrid, nil
}

// NewSleepStateControl attaches a thermal control array driving the
// node's ACPI processor sleep states (C0..C3) — the same decision law
// as the fan controller, walking the C-state table instead of duty
// steps. It demonstrates the array is technique-agnostic: any actuator
// with ordered modes plugs in.
func NewSleepStateControl(n *Node, pp int) (*Controller, error) {
	nc, err := buildNode(n, "auto", "none", "ctlarray", pp, 100)
	if err != nil {
		return nil, err
	}
	return nc.Sleep, nil
}

// LoadScenario reads, normalizes and validates a JSON scenario file.
func LoadScenario(path string) (Scenario, error) { return config.LoadScenario(path) }

// CPUBurn returns the cpu-burn stressor workload (sustained full load
// with scheduling noise) seeded deterministically.
func CPUBurn(seed uint64) Generator {
	return workload.NewCPUBurn(rng.New(seed))
}

// BTB4 returns the NPB BT class-B 4-process program model (≈219 s at
// 2.4 GHz on four nodes).
func BTB4() Program { return workload.BTB4() }

// LUB4 returns the NPB LU class-B 4-process program model.
func LUB4() Program { return workload.LUB4() }

// ExperimentSeed is the fixed seed the paper-reproduction experiments
// run under.
const ExperimentSeed = experiment.Seed
