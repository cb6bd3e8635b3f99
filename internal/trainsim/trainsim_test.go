package trainsim

import (
	"math/rand"
	"testing"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/overlay"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/sim"
	"skeletonhunter/internal/topology"
)

type rig struct {
	eng  *sim.Engine
	net  *netsim.Net
	cp   *cluster.ControlPlane
	task *cluster.Task
	inj  *faults.Injector
}

// meanSlowdown is the average per-iteration slowdown fraction.
func meanSlowdown(j *Job) float64 {
	if j.Iterations == 0 {
		return 0
	}
	return j.SlowdownSum / float64(j.Iterations)
}

func fastLag() cluster.LagModel {
	return cluster.LagModel{
		CreateLag:    func(r *rand.Rand, i int) time.Duration { return time.Duration(i) * time.Second },
		StartupDelay: func(r *rand.Rand) time.Duration { return 5 * time.Second },
		StopLag:      func(r *rand.Rand) time.Duration { return time.Second },
	}
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(41)
	fab, err := topology.New(topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2})
	if err != nil {
		t.Fatal(err)
	}
	ovl := overlay.NewNetwork()
	cp := cluster.NewControlPlane(eng, fab, ovl, fastLag())
	task, err := cp.Submit(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Minute)
	net := netsim.New(eng, fab, ovl)
	return &rig{eng: eng, net: net, cp: cp, task: task, inj: faults.NewInjector(net, cp)}
}

func TestHealthyJobIteratesOnSchedule(t *testing.T) {
	r := newRig(t)
	job, err := Start(r.eng, r.net, r.task, Config{})
	if err != nil {
		t.Fatal(err)
	}
	start := r.eng.Now()
	r.eng.RunUntil(start + 15*time.Minute)
	// 30 s iterations over 15 minutes ⇒ ≈30 rounds; measurement jitter
	// on the worst of ~100 pairs costs a few percent per round.
	if job.Iterations < 25 || job.Iterations > 31 {
		t.Fatalf("iterations = %d, want ≈30", job.Iterations)
	}
	if job.Failed {
		t.Fatal("healthy job failed")
	}
	if s := meanSlowdown(job); s > 0.2 {
		t.Fatalf("healthy mean slowdown = %v", s)
	}
	job.Stop()
}

func TestLatencyFaultSlowsTraining(t *testing.T) {
	// §1's claim: ~10 µs extra RTT ⇒ ~20 % slowdown. A firmware fault
	// adds 60 µs each way (120 µs RTT inflation) on one rail; iterations
	// on the affected path dominate the collective.
	r := newRig(t)
	job, err := Start(r.eng, r.net, r.task, Config{})
	if err != nil {
		t.Fatal(err)
	}
	start := r.eng.Now()
	r.eng.RunUntil(start + 5*time.Minute)
	healthyIters := job.Iterations

	a := r.task.Containers[0].Addrs[0]
	if _, err := r.inj.Inject(faults.RNICFirmwareNotResponding, faults.Target{Host: a.Host, Rail: 0}); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now() + 10*time.Minute)
	if job.Failed {
		t.Fatal("latency fault should slow, not kill")
	}
	faultIters := job.Iterations - healthyIters
	// 120 µs extra RTT ⇒ slowdown ≈ 2.4× ⇒ iteration ≈ 100 s ⇒ ~6
	// rounds in 10 min instead of 20.
	if faultIters > 10 {
		t.Fatalf("fault window completed %d iterations, want visibly slowed (<10)", faultIters)
	}
	if s := meanSlowdown(job); s < 0.2 {
		t.Fatalf("mean slowdown = %v, want substantial", s)
	}
	job.Stop()
}

func TestUnconnectivityKillsJobAfterTimeout(t *testing.T) {
	r := newRig(t)
	job, err := Start(r.eng, r.net, r.task, Config{})
	if err != nil {
		t.Fatal(err)
	}
	start := r.eng.Now()
	r.eng.RunUntil(start + 2*time.Minute)

	a := r.task.Containers[0].Addrs[0]
	if _, err := r.inj.Inject(faults.RNICPortDown, faults.Target{Host: a.Host, Rail: 0}); err != nil {
		t.Fatal(err)
	}
	faultAt := r.eng.Now()
	r.eng.RunUntil(faultAt + 2*time.Minute)
	if !job.Failed {
		t.Fatal("job survived a dead required path")
	}
	// Death comes within the collective timeout plus one iteration.
	if job.FailedAt-faultAt > 40*time.Second {
		t.Fatalf("job died %v after fault, want within one round + timeout", job.FailedAt-faultAt)
	}
}

func TestTransientBlipSurvives(t *testing.T) {
	// A flap shorter than the collective timeout must not kill the job.
	r := newRig(t)
	job, err := Start(r.eng, r.net, r.task, Config{})
	if err != nil {
		t.Fatal(err)
	}
	start := r.eng.Now()
	r.eng.RunUntil(start + 2*time.Minute)
	a := r.task.Containers[0].Addrs[0]
	nic := topology.NIC{Host: a.Host, Rail: 0}
	r.net.SetNodeCondition(nic.ID(), &netsim.Condition{Down: true})
	// Restore within 3 s — under the 4 s timeout.
	r.eng.After(3*time.Second, "repair", func(time.Duration) {
		r.net.SetNodeCondition(nic.ID(), nil)
	})
	r.eng.RunUntil(r.eng.Now() + 5*time.Minute)
	if job.Failed {
		t.Fatal("sub-timeout blip killed the job")
	}
	job.Stop()
}

func TestMaxIterationsStops(t *testing.T) {
	r := newRig(t)
	job, err := Start(r.eng, r.net, r.task, Config{MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now() + time.Hour)
	if job.Iterations != 5 {
		t.Fatalf("iterations = %d, want exactly 5", job.Iterations)
	}
}

func TestStartRequiresRunningContainers(t *testing.T) {
	eng := sim.NewEngine(43)
	fab, _ := topology.New(topology.Spec{Pods: 1, HostsPerPod: 8, Rails: 8, AggPerPod: 2})
	ovl := overlay.NewNetwork()
	cp := cluster.NewControlPlane(eng, fab, ovl, fastLag())
	task, _ := cp.Submit(cluster.TaskSpec{Par: parallelism.Config{TP: 8, PP: 2, DP: 2}})
	// Containers still pending.
	if _, err := Start(eng, netsim.New(eng, fab, ovl), task, Config{}); err != ErrNotRunning {
		t.Fatalf("err = %v, want ErrNotRunning", err)
	}
}

func TestMigrationRescuesSlowedJob(t *testing.T) {
	// A host-board latency fault slows the job; migrating the affected
	// container restores full speed — the §8 recovery loop at the
	// training-progress level.
	r := newRig(t)
	job, err := Start(r.eng, r.net, r.task, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now() + 2*time.Minute)

	victim := r.task.Containers[0]
	if _, err := r.inj.Inject(faults.PCIeNICError, faults.Target{Host: victim.Host}); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now() + 3*time.Minute)
	slowed := meanSlowdown(job)
	if slowed < 0.1 {
		t.Fatalf("fault did not slow the job: %v", slowed)
	}
	if _, err := r.cp.MigrateContainer(victim.ID); err != nil {
		t.Fatal(err)
	}
	before := job.Iterations
	r.eng.RunUntil(r.eng.Now() + 5*time.Minute)
	if job.Failed {
		t.Fatal("job failed across migration")
	}
	if got := job.Iterations - before; got < 9 {
		t.Fatalf("post-migration rounds in 5min = %d, want ≈10 (full speed)", got)
	}
}
