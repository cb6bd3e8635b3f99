// Package faults injects the 19 production network issue types of
// Table 1 into the simulated infrastructure and records ground truth,
// so that detection precision/recall and localization accuracy (§7.1)
// can be scored exactly.
//
// Each issue type perturbs the same component class the paper
// attributes it to: physical links/switches via netsim conditions,
// RNICs via NIC-node conditions or offload-table staleness, host boards
// via host conditions, virtual switches via flow-table manipulation,
// the container runtime via control-plane crashes, and configuration
// issues via latency conditions on hosts or switch queues.
package faults

import (
	"errors"
	"fmt"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/topology"
)

// IssueType enumerates Table 1's 19 issue types, numbered as in the
// paper.
type IssueType int

const (
	CRCError IssueType = iota + 1
	SwitchPortDown
	SwitchPortFlapping
	SwitchOffline
	RNICHardwareFailure
	RNICFirmwareNotResponding
	RNICPortDown
	RNICPortFlapping
	OffloadingFailure
	BondError
	GIDChange
	PCIeNICError
	GPUDirectRDMAError
	NotUsingRDMA
	RepetitiveFlowOffloading
	SuboptimalFlowOffloading
	ContainerCrash
	HugepageMisconfiguration
	CongestionControlIssue
)

// Symptom is the observable failure mode (Table 1's "Symptoms" column).
type Symptom int

const (
	SymptomPacketLoss Symptom = iota
	SymptomUnconnectivity
	SymptomHighLatency
)

func (s Symptom) String() string {
	switch s {
	case SymptomPacketLoss:
		return "packet-loss"
	case SymptomUnconnectivity:
		return "unconnectivity"
	case SymptomHighLatency:
		return "high-latency"
	default:
		return fmt.Sprintf("symptom(%d)", int(s))
	}
}

// Info is the catalog metadata for one issue type.
type Info struct {
	Type    IssueType
	Name    string
	Class   component.Class
	Symptom Symptom
	Reason  string
}

// Catalog returns the full Table 1 issue catalog in paper order.
func Catalog() []Info {
	return []Info{
		{CRCError, "CRC error", component.ClassInterHostNetwork, SymptomPacketLoss, "Physical fabric causes packet corruption."},
		{SwitchPortDown, "Switch port down", component.ClassInterHostNetwork, SymptomUnconnectivity, "The switch port is unreachable."},
		{SwitchPortFlapping, "Switch port flapping", component.ClassInterHostNetwork, SymptomPacketLoss, "The switch port is flapping."},
		{SwitchOffline, "Switch offline", component.ClassInterHostNetwork, SymptomUnconnectivity, "The switch crashes or is manually set to offline for upgrade."},
		{RNICHardwareFailure, "RNIC hardware failure", component.ClassRNIC, SymptomUnconnectivity, "Hardware components of the RNIC are not working normally."},
		{RNICFirmwareNotResponding, "RNIC firmware not responding", component.ClassRNIC, SymptomHighLatency, "RNIC firmware bugs result in high latency of specific flows."},
		{RNICPortDown, "RNIC port down", component.ClassRNIC, SymptomUnconnectivity, "The RNIC port is consistently down."},
		{RNICPortFlapping, "RNIC port flapping", component.ClassRNIC, SymptomPacketLoss, "The RNIC port is periodically down."},
		{OffloadingFailure, "Offloading failure", component.ClassRNIC, SymptomHighLatency, "Packet en-/de-capsulation cannot be offloaded to the RNIC."},
		{BondError, "Bond error", component.ClassRNIC, SymptomUnconnectivity, "Unable to bond the ports of the RNIC."},
		{GIDChange, "RNIC GID change", component.ClassHostBoard, SymptomUnconnectivity, "The network service of the OS is restarted unexpectedly."},
		{PCIeNICError, "PCIe-NIC error", component.ClassHostBoard, SymptomHighLatency, "The RNICs in the same host cannot communicate with each other."},
		{GPUDirectRDMAError, "GPU direct RDMA error", component.ClassHostBoard, SymptomHighLatency, "The GPU cannot directly communicate with the RNIC in the container."},
		{NotUsingRDMA, "Not using RDMA", component.ClassVirtualSwitch, SymptomHighLatency, "Flows that should be transmitted over RDMA are actually using TCP/UDP."},
		{RepetitiveFlowOffloading, "Repetitive flow offloading", component.ClassVirtualSwitch, SymptomHighLatency, "Offloaded flows are frequently invalidated in the RNIC."},
		{SuboptimalFlowOffloading, "Suboptimal flow offloading", component.ClassVirtualSwitch, SymptomHighLatency, "Flows are offloaded with incorrect orders with high latency of some flows."},
		{ContainerCrash, "Container crash", component.ClassContainerRuntime, SymptomUnconnectivity, "Containers crash shortly after creation due to container runtime defects."},
		{HugepageMisconfiguration, "Hugepage misconfiguration", component.ClassConfiguration, SymptomHighLatency, "The host's hugepage configuration is not consistent with the RNIC."},
		{CongestionControlIssue, "Congestion control issue", component.ClassConfiguration, SymptomHighLatency, "The congestion control of a specific queue in the switch is not enabled."},
	}
}

// InfoOf returns catalog metadata for a type.
func InfoOf(t IssueType) (Info, bool) {
	for _, in := range Catalog() {
		if in.Type == t {
			return in, true
		}
	}
	return Info{}, false
}

// Target selects where to inject. Which fields are required depends on
// the issue type (see Inject).
type Target struct {
	Link      topology.LinkID     // link-scoped issues (1–3)
	Switch    topology.NodeID     // switch-scoped issues (4, 19)
	Host      int                 // host-scoped issues (11–14, 18); also RNIC host
	Rail      int                 // RNIC-scoped issues (5–10)
	Container cluster.ContainerID // issue 17
	VNI       overlay.VNI         // offload issues: scope staleness to one task
}

// Injection is one active (or cleared) fault with its ground truth.
type Injection struct {
	ID        int
	Type      IssueType
	Info      Info
	Target    Target
	At        time.Duration
	Cleared   bool
	ClearedAt time.Duration

	// Components lists the ground-truth component IDs a correct
	// localization should name.
	Components []component.ID

	undo func()
}

// Injector applies and clears faults.
type Injector struct {
	Net *netsim.Net
	CP  *cluster.ControlPlane

	seq        int
	injections []*Injection
}

// NewInjector returns an injector over a simulated network and control
// plane. CP may be nil if container-runtime issues are not used.
func NewInjector(net *netsim.Net, cp *cluster.ControlPlane) *Injector {
	return &Injector{Net: net, CP: cp}
}

// Injections returns every injection performed, in order.
func (inj *Injector) Injections() []*Injection { return inj.injections }

var errBadTarget = errors.New("faults: target missing required fields for issue type")

// Inject applies one issue. It returns the injection record carrying
// the ground-truth component set.
func (inj *Injector) Inject(t IssueType, tgt Target) (*Injection, error) {
	info, ok := InfoOf(t)
	if !ok {
		return nil, fmt.Errorf("faults: unknown issue type %d", t)
	}
	in := &Injection{Type: t, Info: info, Target: tgt, At: inj.Net.Engine.Now()}

	switch t {
	case CRCError:
		if tgt.Link == "" {
			return nil, errBadTarget
		}
		cond := &netsim.Condition{LossRate: 0.05}
		inj.Net.SetLinkCondition(tgt.Link, cond)
		in.Components = []component.ID{component.Link(tgt.Link)}
		in.undo = func() { inj.Net.SetLinkCondition(tgt.Link, nil) }

	case SwitchPortDown:
		if tgt.Link == "" {
			return nil, errBadTarget
		}
		inj.Net.SetLinkCondition(tgt.Link, &netsim.Condition{Down: true})
		in.Components = []component.ID{component.Link(tgt.Link)}
		in.undo = func() { inj.Net.SetLinkCondition(tgt.Link, nil) }

	case SwitchPortFlapping:
		if tgt.Link == "" {
			return nil, errBadTarget
		}
		inj.Net.SetLinkCondition(tgt.Link, &netsim.Condition{
			Flap: &netsim.Flap{Period: 10 * time.Second, DownFor: 3 * time.Second},
		})
		in.Components = []component.ID{component.Link(tgt.Link)}
		in.undo = func() { inj.Net.SetLinkCondition(tgt.Link, nil) }

	case SwitchOffline:
		if tgt.Switch == "" {
			return nil, errBadTarget
		}
		inj.Net.SetNodeCondition(tgt.Switch, &netsim.Condition{Down: true})
		in.Components = []component.ID{component.Switch(tgt.Switch)}
		in.undo = func() { inj.Net.SetNodeCondition(tgt.Switch, nil) }

	case RNICHardwareFailure, RNICPortDown, BondError:
		nic := topology.NIC{Host: tgt.Host, Rail: tgt.Rail}
		inj.Net.SetNodeCondition(nic.ID(), &netsim.Condition{Down: true})
		in.Components = []component.ID{component.RNIC(tgt.Host, tgt.Rail)}
		in.undo = func() { inj.Net.SetNodeCondition(nic.ID(), nil) }

	case RNICFirmwareNotResponding:
		nic := topology.NIC{Host: tgt.Host, Rail: tgt.Rail}
		inj.Net.SetNodeCondition(nic.ID(), &netsim.Condition{ExtraLatency: 60 * time.Microsecond})
		in.Components = []component.ID{component.RNIC(tgt.Host, tgt.Rail)}
		in.undo = func() { inj.Net.SetNodeCondition(nic.ID(), nil) }

	case RNICPortFlapping:
		nic := topology.NIC{Host: tgt.Host, Rail: tgt.Rail}
		inj.Net.SetNodeCondition(nic.ID(), &netsim.Condition{
			Flap: &netsim.Flap{Period: 8 * time.Second, DownFor: 2 * time.Second},
		})
		in.Components = []component.ID{component.RNIC(tgt.Host, tgt.Rail)}
		in.undo = func() { inj.Net.SetNodeCondition(nic.ID(), nil) }

	case OffloadingFailure:
		// The RNIC invalidates its offloaded entries on one rail
		// (Fig. 18's failure): relevant flows fall to the software path.
		keys := inj.staleRail(tgt.Host, tgt.Rail, true)
		if len(keys) == 0 {
			return nil, fmt.Errorf("faults: no offloaded entries on host %d rail %d", tgt.Host, tgt.Rail)
		}
		in.Components = []component.ID{component.RNIC(tgt.Host, tgt.Rail)}
		in.undo = func() { inj.restoreKeys(tgt.Host, keys) }

	case GIDChange:
		inj.Net.SetHostCondition(tgt.Host, &netsim.Condition{Down: true})
		in.Components = []component.ID{component.HostBoard(tgt.Host)}
		in.undo = func() { inj.Net.SetHostCondition(tgt.Host, nil) }

	case PCIeNICError:
		inj.Net.SetHostCondition(tgt.Host, &netsim.Condition{ExtraLatency: 45 * time.Microsecond})
		in.Components = []component.ID{component.HostBoard(tgt.Host)}
		in.undo = func() { inj.Net.SetHostCondition(tgt.Host, nil) }

	case GPUDirectRDMAError:
		inj.Net.SetHostCondition(tgt.Host, &netsim.Condition{ExtraLatency: 25 * time.Microsecond})
		in.Components = []component.ID{component.HostBoard(tgt.Host)}
		in.undo = func() { inj.Net.SetHostCondition(tgt.Host, nil) }

	case NotUsingRDMA:
		n := inj.Net.Overlay.DeOffloadAll(tgt.Host)
		if n == 0 {
			return nil, fmt.Errorf("faults: no offloaded entries on host %d", tgt.Host)
		}
		in.Components = []component.ID{component.VSwitch(tgt.Host)}
		in.undo = func() { inj.Net.Overlay.ReOffloadAll(tgt.Host) }

	case RepetitiveFlowOffloading:
		// The vswitch keeps re-offloading entries the RNIC invalidates:
		// every rail of the host shows staleness.
		var all []overlay.FlowKey
		for rail := 0; rail < inj.Net.Fabric.Spec.Rails; rail++ {
			all = append(all, inj.staleRail(tgt.Host, rail, true)...)
		}
		if len(all) == 0 {
			return nil, fmt.Errorf("faults: no offloaded entries on host %d", tgt.Host)
		}
		in.Components = []component.ID{component.VSwitch(tgt.Host)}
		in.undo = func() { inj.restoreKeys(tgt.Host, all) }

	case SuboptimalFlowOffloading:
		// Mis-ordered offloading leaves a subset of flows (every other
		// entry) on the slow path.
		keys := inj.staleEveryOther(tgt.Host)
		if len(keys) == 0 {
			return nil, fmt.Errorf("faults: no offloaded entries on host %d", tgt.Host)
		}
		in.Components = []component.ID{component.VSwitch(tgt.Host)}
		in.undo = func() { inj.restoreKeys(tgt.Host, keys) }

	case ContainerCrash:
		if inj.CP == nil || tgt.Container == "" {
			return nil, errBadTarget
		}
		if !inj.CP.CrashContainer(tgt.Container) {
			return nil, fmt.Errorf("faults: container %s not crashable", tgt.Container)
		}
		in.Components = []component.ID{component.Container(string(tgt.Container))}
		in.undo = func() {} // a crashed container does not come back

	case HugepageMisconfiguration:
		inj.Net.SetHostCondition(tgt.Host, &netsim.Condition{ExtraLatency: 35 * time.Microsecond})
		in.Components = []component.ID{component.HostConfig(tgt.Host)}
		in.undo = func() { inj.Net.SetHostCondition(tgt.Host, nil) }

	case CongestionControlIssue:
		if tgt.Switch == "" {
			return nil, errBadTarget
		}
		// Congestion-backed latency: the mis-configured queue visibly
		// builds, unlike software/firmware slowness.
		inj.Net.SetNodeCondition(tgt.Switch, &netsim.Condition{ExtraLatency: 40 * time.Microsecond, QueueBacklog: true})
		in.Components = []component.ID{component.SwitchConfig(tgt.Switch)}
		in.undo = func() { inj.Net.SetNodeCondition(tgt.Switch, nil) }

	default:
		return nil, fmt.Errorf("faults: unhandled issue type %d", t)
	}

	inj.seq++
	in.ID = inj.seq
	inj.injections = append(inj.injections, in)
	return in, nil
}

// scenarioIssueBase offsets scenario-pack injection types past both the
// Table 1 catalog and the gray range, so scoring can tell the three
// fault populations apart.
const scenarioIssueBase = 200

// ScenarioLinkLoss is the parameterized-loss injection the scenario
// packs escalate through (rdma-mask's loss staircase).
const ScenarioLinkLoss = IssueType(scenarioIssueBase + 1)

// InjectLinkLoss applies a raw loss-rate condition to one link and
// records ground truth. Unlike CRCError's fixed 5 % it takes the rate
// as a parameter — the scenario packs walk a link through an escalating
// loss staircase, each step its own adjacent ground-truth window on the
// same component (exactly the overlapping-window shape metrics.Score
// merges into episodes).
func (inj *Injector) InjectLinkLoss(link topology.LinkID, rate float64) (*Injection, error) {
	if link == "" {
		return nil, errBadTarget
	}
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("faults: loss rate %v outside [0,1]", rate)
	}
	in := &Injection{
		Type:   ScenarioLinkLoss,
		Target: Target{Link: link},
		At:     inj.Net.Engine.Now(),
		Info: Info{Type: ScenarioLinkLoss, Name: fmt.Sprintf("Scenario link loss %.0f%%", rate*100),
			Class: component.ClassInterHostNetwork, Symptom: SymptomPacketLoss,
			Reason: "Scenario pack applies a parameterized loss rate to a link."},
		Components: []component.ID{component.Link(link)},
	}
	inj.Net.SetLinkCondition(link, &netsim.Condition{LossRate: rate})
	in.undo = func() { inj.Net.SetLinkCondition(link, nil) }
	inj.seq++
	in.ID = inj.seq
	inj.injections = append(inj.injections, in)
	return in, nil
}

// staleRail marks (or restores) every offloaded entry riding a rail on
// a host as stale, returning the touched keys.
func (inj *Injector) staleRail(host, rail int, stale bool) []overlay.FlowKey {
	vsw := inj.Net.Overlay.VSwitch(host)
	var keys []overlay.FlowKey
	for _, k := range vsw.Keys() {
		e, _ := vsw.Lookup(k)
		if e.Action.Rail != rail || !e.Offloaded {
			continue
		}
		e.OffloadStale = stale
		keys = append(keys, k)
	}
	return keys
}

func (inj *Injector) staleEveryOther(host int) []overlay.FlowKey {
	vsw := inj.Net.Overlay.VSwitch(host)
	var keys []overlay.FlowKey
	for i, k := range vsw.Keys() {
		if i%2 != 0 {
			continue
		}
		e, _ := vsw.Lookup(k)
		if !e.Offloaded {
			continue
		}
		e.OffloadStale = true
		keys = append(keys, k)
	}
	return keys
}

func (inj *Injector) restoreKeys(host int, keys []overlay.FlowKey) {
	vsw := inj.Net.Overlay.VSwitch(host)
	for _, k := range keys {
		if e, ok := vsw.Lookup(k); ok {
			e.OffloadStale = false
		}
	}
}

// Clear removes an injection's effect and records the clearing time.
// Clearing twice is a no-op.
func (inj *Injector) Clear(in *Injection) {
	if in.Cleared {
		return
	}
	in.Cleared = true
	in.ClearedAt = inj.Net.Engine.Now()
	if in.undo != nil {
		in.undo()
	}
}

// GrayKind enumerates gray failures: degradations engineered to sit
// below (or creep up on) the first-layer detector's thresholds. They
// are the workload for the second-layer correlator — a gray fault
// should raise change-point alarms well before, or instead of, a hard
// verdict.
type GrayKind int

const (
	// GrayCongestionDroop ramps a switch's congestion-backed latency
	// from zero: no step for a threshold to trip on, but the queue
	// grows round over round and the drift CUSUM accumulates.
	GrayCongestionDroop GrayKind = iota + 1
	// GrayPartialRTT adds a small constant latency at one RNIC — a
	// fraction of the software-slow-path penalty, far under the hard
	// detector's outlier bar, yet a clear level shift in log-RTT.
	GrayPartialRTT
	// GrayFlappingLink makes a NIC attach link blink briefly on a short
	// period: per-round loss stays under the packet-loss threshold while
	// the RNIC's delivery ratio visibly droops.
	GrayFlappingLink
)

// grayIssueBase offsets gray injection types past the Table 1 catalog
// so scoring can tell the two fault populations apart.
const grayIssueBase = 100

// IsGray reports whether an injection was made through InjectGray.
func (in *Injection) IsGray() bool { return in.Type >= grayIssueBase }

// InjectGray applies one gray failure. The returned record carries the
// same ground-truth component set Inject produces, with Type offset by
// grayIssueBase and synthesized catalog metadata.
func (inj *Injector) InjectGray(k GrayKind, tgt Target) (*Injection, error) {
	now := inj.Net.Engine.Now()
	in := &Injection{Type: IssueType(grayIssueBase + int(k)), Target: tgt, At: now}

	switch k {
	case GrayCongestionDroop:
		if tgt.Switch == "" {
			return nil, errBadTarget
		}
		in.Info = Info{Type: in.Type, Name: "Gray congestion droop",
			Class: component.ClassConfiguration, Symptom: SymptomHighLatency,
			Reason: "A switch queue's congestion control slowly degrades; latency ramps instead of stepping."}
		inj.Net.SetNodeCondition(tgt.Switch, &netsim.Condition{
			RampLatencyPerSec: 150 * time.Nanosecond,
			RampStart:         now,
			QueueBacklog:      true,
		})
		in.Components = []component.ID{component.SwitchConfig(tgt.Switch)}
		in.undo = func() { inj.Net.SetNodeCondition(tgt.Switch, nil) }

	case GrayPartialRTT:
		nic := topology.NIC{Host: tgt.Host, Rail: tgt.Rail}
		in.Info = Info{Type: in.Type, Name: "Gray partial RTT inflation",
			Class: component.ClassRNIC, Symptom: SymptomHighLatency,
			Reason: "An RNIC adds a few microseconds per traversal — well under the outlier bar, persistently."}
		inj.Net.SetNodeCondition(nic.ID(), &netsim.Condition{ExtraLatency: 4 * time.Microsecond})
		in.Components = []component.ID{component.RNIC(tgt.Host, tgt.Rail)}
		in.undo = func() { inj.Net.SetNodeCondition(nic.ID(), nil) }

	case GrayFlappingLink:
		if tgt.Link == "" {
			return nil, errBadTarget
		}
		in.Info = Info{Type: in.Type, Name: "Gray flapping link",
			Class: component.ClassInterHostNetwork, Symptom: SymptomPacketLoss,
			Reason: "A link blinks for a few hundred milliseconds on a short period; average loss stays sub-threshold."}
		inj.Net.SetLinkCondition(tgt.Link, &netsim.Condition{
			Flap: &netsim.Flap{Period: 9 * time.Second, DownFor: 450 * time.Millisecond},
		})
		in.Components = []component.ID{component.Link(tgt.Link)}
		in.undo = func() { inj.Net.SetLinkCondition(tgt.Link, nil) }

	default:
		return nil, fmt.Errorf("faults: unknown gray kind %d", k)
	}

	inj.seq++
	in.ID = inj.seq
	inj.injections = append(inj.injections, in)
	return in, nil
}
