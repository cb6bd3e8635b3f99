package hunter

import (
	"fmt"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/probe"
	"skeletonhunter/internal/topology"
	"skeletonhunter/internal/transport"
)

// ServeTransport exposes the deployment's controller and analyzer over
// the real TCP wire protocol (§6), so external agents — or the
// examples exercising the deployment path — can register, fetch ping
// lists, and stream probe reports with per-task authentication.
// The returned server should be Closed by the caller.
func (d *Deployment) ServeTransport(addr string) (*transport.Server, error) {
	return transport.NewServer(addr, (*transportBackend)(d))
}

// TaskSecret returns the per-task shared secret agents authenticate
// with. Secrets are minted once per task at first request (a real
// control plane would mint them at task creation and inject them into
// the sidecars) and are stable thereafter.
func (d *Deployment) TaskSecret(id cluster.TaskID) (transport.Secret, bool) {
	if s, ok := d.secrets[id]; ok {
		return transport.Secret(s), true
	}
	if _, ok := d.CP.Task(id); !ok {
		return nil, false
	}
	r := d.Engine.Rand("task-secret/" + string(id))
	buf := make([]byte, 32)
	for i := range buf {
		buf[i] = byte(r.Intn(256))
	}
	s := fmt.Sprintf("%x", buf)
	d.secrets[id] = s
	return transport.Secret(s), true
}

// transportBackend adapts Deployment to transport.Backend.
type transportBackend Deployment

func (b *transportBackend) dep() *Deployment { return (*Deployment)(b) }

// SecretOf implements transport.Backend.
func (b *transportBackend) SecretOf(task string) (transport.Secret, bool) {
	return b.dep().TaskSecret(cluster.TaskID(task))
}

// Epoch implements transport.Backend: responses carry the controller
// incarnation so wire agents can detect a restart and re-register.
func (b *transportBackend) Epoch() uint64 {
	return b.dep().Controller.Epoch()
}

// Register implements transport.Backend.
func (b *transportBackend) Register(task string, container int) error {
	d := b.dep()
	t, ok := d.CP.Task(cluster.TaskID(task))
	if !ok {
		return fmt.Errorf("unknown task %s", task)
	}
	if container < 0 || container >= len(t.Containers) {
		return fmt.Errorf("container %d out of range", container)
	}
	d.Controller.Register(t.ID, container)
	return nil
}

// Deregister implements transport.Backend.
func (b *transportBackend) Deregister(task string, container int) error {
	b.dep().Controller.Deregister(cluster.TaskID(task), container)
	return nil
}

// PingList implements transport.Backend.
func (b *transportBackend) PingList(task string, container int) ([]transport.Target, error) {
	d := b.dep()
	targets := d.Controller.PingListInto(cluster.TaskID(task), container, nil)
	out := make([]transport.Target, 0, len(targets))
	for _, t := range targets {
		out = append(out, transport.Target{
			SrcContainer: t.SrcContainer, SrcRail: t.SrcRail,
			DstContainer: t.DstContainer, DstRail: t.DstRail,
		})
	}
	return out, nil
}

// Report implements transport.Backend: wire reports become analyzer
// ingest records, resolving endpoint addresses through the control
// plane and path links to fabric ordinals.
func (b *transportBackend) Report(task string, container int, reports []transport.ProbeReport) error {
	d := b.dep()
	t, ok := d.CP.Task(cluster.TaskID(task))
	if !ok {
		return fmt.Errorf("unknown task %s", task)
	}
	// Validate and convert the whole report, then ingest it as one
	// batch, mirroring the in-process agents' per-round path. A report
	// with any malformed entry — a container, rail or link the
	// deployment does not have — is rejected wholesale.
	batch := make(probe.Batch, 0, len(reports))
	var paths []int32
	for _, r := range reports {
		if r.SrcContainer < 0 || r.SrcContainer >= len(t.Containers) ||
			r.DstContainer < 0 || r.DstContainer >= len(t.Containers) {
			return fmt.Errorf("report references container out of range")
		}
		src := t.Containers[r.SrcContainer]
		dst := t.Containers[r.DstContainer]
		if r.SrcRail < 0 || r.SrcRail >= len(src.Addrs) || r.DstRail < 0 || r.DstRail >= len(dst.Addrs) {
			return fmt.Errorf("report references rail out of range")
		}
		rec := probe.Record{
			Task:         t.ID,
			SrcContainer: r.SrcContainer, SrcRail: r.SrcRail,
			DstContainer: r.DstContainer, DstRail: r.DstRail,
			Src:  src.Addrs[r.SrcRail],
			Dst:  dst.Addrs[r.DstRail],
			At:   time.Duration(r.AtNanos),
			RTT:  time.Duration(r.RTTNanos),
			Lost: r.Lost,
		}
		start := len(paths)
		for _, l := range r.Path {
			ord, ok := d.Fabric.LinkIndex(topology.LinkID(l))
			if !ok {
				return fmt.Errorf("report references link %q outside the fabric", l)
			}
			paths = append(paths, ord)
		}
		if len(paths) > start {
			rec.Path = paths[start:len(paths):len(paths)]
		}
		batch = append(batch, rec)
	}
	d.ingestBatch(batch)
	return nil
}

// Stats implements transport.Backend.
func (b *transportBackend) Stats(task string) (full, basic, current int, phase string, err error) {
	d := b.dep()
	st, ok := d.Controller.StatsOf(cluster.TaskID(task))
	if !ok {
		return 0, 0, 0, "", fmt.Errorf("unknown task %s", task)
	}
	return st.FullMeshTargets, st.BasicTargets, st.CurrentTargets, st.Phase.String(), nil
}
