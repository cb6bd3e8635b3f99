// Deployment-side effectors for the remediation plane: the remedy
// engine owns policy, rails and sequencing (internal/remedy); this
// file owns mechanism — how each ActionKind actually lands on the
// cluster control plane, how topology mutations roll back, and what
// "healthy again" means in terms the deployment can observe.
package hunter

import (
	"fmt"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/component"
	"skeletonhunter/internal/remedy"
	"skeletonhunter/internal/topology"
)

// remedyOps wires the engine's effector surface to this deployment.
func (d *Deployment) remedyOps() remedy.Ops {
	return remedy.Ops{
		AffectedHosts: d.remedyAffectedHosts,
		Execute:       d.remedyExecute,
		Rollback:      d.remedyRollback,
		Healthy:       d.remedyHealthy,
		NoteAudit: func(comp component.ID, note string) {
			d.Incidents.NoteRemediation(comp, note)
		},
		NoteRepaired: func(comp component.ID, at time.Duration, how string) {
			d.Incidents.NoteRepaired(comp, at, how)
		},
	}
}

// remedyHost resolves the host a host-scoped action evacuates: the
// component's own host, or the NIC endpoint of an implicated link.
func (d *Deployment) remedyHost(comp component.ID) (int, bool) {
	if h, ok := component.HostOf(comp); ok {
		return h, true
	}
	if hs := component.LinkHosts(comp); len(hs) > 0 {
		return hs[0], true
	}
	return 0, false
}

// remedySwitch resolves the switch a cordon+drain takes out: the
// component's own switch, or the first switch endpoint of a
// switch-switch link.
func (d *Deployment) remedySwitch(comp component.ID) (topology.NodeID, bool) {
	if sw, ok := component.SwitchOf(comp); ok {
		return sw, true
	}
	if sws := component.LinkSwitches(comp); len(sws) > 0 {
		return sws[0], true
	}
	return "", false
}

// remedyAffectedHosts projects an action's blast-radius footprint —
// the hosts it takes out of service — before anything executes.
func (d *Deployment) remedyAffectedHosts(kind remedy.ActionKind, comp component.ID) []int {
	switch kind {
	case remedy.KindDrainHost:
		if h, ok := d.remedyHost(comp); ok {
			return []int{h}
		}
	case remedy.KindCordonDrainSwitch:
		if sw, ok := d.remedySwitch(comp); ok {
			return d.Fabric.HostsUnder(sw)
		}
	}
	// Restarts and in-place offload repairs consume no capacity.
	return nil
}

// remedyExecute performs one repair against the control plane.
func (d *Deployment) remedyExecute(kind remedy.ActionKind, comp component.ID) (string, error) {
	switch kind {
	case remedy.KindRestartContainer:
		name, ok := component.ContainerOf(comp)
		if !ok {
			return "", fmt.Errorf("component %s is not a container", comp)
		}
		c, err := d.CP.RestartContainer(cluster.ContainerID(name))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("restarted %s on host %d", name, c.Host), nil

	case remedy.KindDrainHost:
		h, ok := d.remedyHost(comp)
		if !ok {
			return "", fmt.Errorf("component %s has no host to drain", comp)
		}
		d.CP.CordonHost(h)
		moved, err := d.CP.DrainHost(h)
		if err != nil {
			return "", fmt.Errorf("drain host %d (moved %d): %w", h, moved, err)
		}
		return fmt.Sprintf("cordoned host %d, migrated %d container(s)", h, moved), nil

	case remedy.KindCordonDrainSwitch:
		sw, ok := d.remedySwitch(comp)
		if !ok {
			return "", fmt.Errorf("component %s has no switch to cordon", comp)
		}
		hosts := d.Fabric.HostsUnder(sw)
		if len(hosts) == 0 {
			return "", fmt.Errorf("switch %s serves no hosts in this fabric", sw)
		}
		// Cordon the whole span first so drained containers cannot land
		// back under the same bad switch, then evacuate host by host.
		for _, h := range hosts {
			d.CP.CordonHost(h)
		}
		total := 0
		for _, h := range hosts {
			moved, err := d.CP.DrainHost(h)
			total += moved
			if err != nil {
				return "", fmt.Errorf("drain %s: host %d (moved %d): %w", sw, h, total, err)
			}
		}
		return fmt.Sprintf("cordoned %d host(s) under %s, migrated %d container(s)", len(hosts), sw, total), nil

	case remedy.KindClearOffload:
		host, rail, ok := component.RNICOf(comp)
		if !ok {
			return "", fmt.Errorf("component %s is not an RNIC", comp)
		}
		cleared := 0
		for _, k := range d.Overlay.DumpOffload(host, rail).Inconsistent {
			if d.Overlay.RestoreOffload(host, k.VNI, k.Dst) {
				cleared++
			}
		}
		if cleared == 0 {
			return "", fmt.Errorf("no stale offload entries on host %d rail %d", host, rail)
		}
		return fmt.Sprintf("re-synchronized %d offload entr(y/ies) on host %d rail %d", cleared, host, rail), nil

	default:
		return "", fmt.Errorf("unknown action kind %v", kind)
	}
}

// remedyRollback undoes an action's topology mutations: cordons lift,
// so the localizer's world stops diverging from the scheduler's. What
// cannot be undone (migrations already performed, restarted
// containers) stays — the audit entry records it.
func (d *Deployment) remedyRollback(kind remedy.ActionKind, comp component.ID, hosts []int) {
	switch kind {
	case remedy.KindDrainHost, remedy.KindCordonDrainSwitch:
		for _, h := range hosts {
			d.CP.UncordonHost(h)
		}
	}
}

// remedyHealthy is the verify-then-commit check: has the component
// been symptom-free since the action executed? Two signals, both
// observable from monitoring state alone: for RNICs the offload dump
// must show no drift, and for everything the component's incident
// must not have alarmed after the action (with a short grace for
// detector windows that straddle the execution and drain stale
// pre-repair samples).
func (d *Deployment) remedyHealthy(comp component.ID, executedAt time.Duration) bool {
	if host, rail, ok := component.RNICOf(comp); ok {
		if dump := d.Overlay.DumpOffload(host, rail); len(dump.Inconsistent) > 0 {
			return false
		}
	}
	inc, ok := d.Incidents.Latest(comp)
	if !ok {
		return true
	}
	return inc.LastAlarmAt <= executedAt+2*d.sweepInterval
}
