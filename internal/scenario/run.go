package scenario

import (
	"fmt"
	"time"

	"skeletonhunter/internal/cluster"
	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/netsim"
	"skeletonhunter/internal/parallelism"
	"skeletonhunter/internal/topology"
	"skeletonhunter/internal/trainsim"

	"skeletonhunter/internal/hunter"
)

// RunLog is the live record of one installed schedule: what each
// action produced, filled in as the engine replays the scenario.
type RunLog struct {
	Schedule *Schedule

	// Injections maps inject-action index → the fault it opened, Tasks
	// submit-action index → the submitted task, and Jobs train-action
	// index → the collective job.
	Injections map[int]*faults.Injection
	Tasks      map[int]*cluster.Task
	Jobs       map[int]*trainsim.Job

	// Ghost-view phase boundaries (valid when the Has flags are set).
	GhostAt    time.Duration
	HasGhost   bool
	RefreshAt  time.Duration
	HasRefresh bool

	// Skeleton-inference outcomes (churn pack).
	Inferences int
	InferErrs  int

	// Errs collects per-action failures. Actions run inside engine
	// events and cannot return errors; a failed action is recorded and
	// the scenario keeps going — the scorer decides what a failure
	// means for the pack.
	Errs []string
}

// CollapseAt returns the earliest collective-job failure time, if any
// job collapsed — rdma-mask's ground-truth "the workload noticed".
func (l *RunLog) CollapseAt() (time.Duration, bool) {
	var at time.Duration
	found := false
	for _, job := range l.Jobs {
		if job.Failed && (!found || job.FailedAt < at) {
			at, found = job.FailedAt, true
		}
	}
	return at, found
}

// trainRetries bounds how often a train action re-tries while its
// task's containers are still starting up.
const (
	trainRetries    = 24
	trainRetryEvery = 5 * time.Second
)

// Install validates the schedule and registers every action as an
// engine event on the deployment. The caller then drives the campaign
// (typically d.Run(s.Horizon)); the returned RunLog fills in as the
// actions fire. Determinism: actions run at their scheduled times in
// schedule order, use no wall clock and no shared RNG, so a pack
// replays bit-identically at any worker count.
func Install(d *hunter.Deployment, s *Schedule) (*RunLog, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	log := &RunLog{
		Schedule:   s,
		Injections: make(map[int]*faults.Injection),
		Tasks:      make(map[int]*cluster.Task),
		Jobs:       make(map[int]*trainsim.Job),
	}
	for i := range s.Actions {
		i := i
		a := s.Actions[i]
		name := fmt.Sprintf("scenario/%s/%d-%s", s.Name, i, a.Kind)
		d.Engine.Schedule(a.At, name, func(now time.Duration) {
			runAction(d, log, i, a, now)
		})
	}
	return log, nil
}

// Run is Install plus driving the engine to the schedule's horizon.
func Run(d *hunter.Deployment, s *Schedule) (*RunLog, error) {
	log, err := Install(d, s)
	if err != nil {
		return nil, err
	}
	d.Run(s.Horizon)
	return log, nil
}

func (l *RunLog) errf(format string, args ...interface{}) {
	l.Errs = append(l.Errs, fmt.Sprintf(format, args...))
}

func runAction(d *hunter.Deployment, log *RunLog, i int, a Action, now time.Duration) {
	target := faults.Target{Link: a.Link, Switch: a.Switch, Host: a.Host, Rail: a.Rail}
	switch a.Kind {
	case ActNoop:

	case ActInject, ActInjectLoss, ActInjectGray:
		var in *faults.Injection
		var err error
		switch a.Kind {
		case ActInject:
			in, err = d.Injector.Inject(faults.IssueType(a.Issue), target)
		case ActInjectLoss:
			in, err = d.Injector.InjectLinkLoss(a.Link, a.Loss)
		default:
			in, err = d.Injector.InjectGray(faults.GrayKind(a.Issue), target)
		}
		if err != nil {
			log.errf("action %d %s issue %d: %v", i, a.Kind, a.Issue, err)
			return
		}
		log.Injections[i] = in

	case ActClear:
		in := log.Injections[a.Ref]
		if in == nil {
			log.errf("action %d clears action %d which never injected", i, a.Ref)
			return
		}
		d.Injector.Clear(in)

	case ActSubmit:
		task, err := d.SubmitTask(cluster.TaskSpec{
			Par:      parallelism.Config{TP: a.TP, PP: a.PP, DP: a.DP},
			Lifetime: a.Lifetime,
		})
		if err != nil {
			log.errf("action %d submit %d/%d/%d: %v", i, a.TP, a.PP, a.DP, err)
			return
		}
		log.Tasks[i] = task

	case ActFinish:
		task := log.Tasks[a.Ref]
		if task == nil {
			log.errf("action %d finishes action %d which never submitted", i, a.Ref)
			return
		}
		d.CP.FinishTask(task.ID)

	case ActInfer:
		task := log.Tasks[a.Ref]
		if task == nil {
			log.errf("action %d infers action %d which never submitted", i, a.Ref)
			return
		}
		if _, err := d.InferSkeleton(task, a.Window); err != nil {
			log.InferErrs++
			log.errf("action %d infer: %v", i, err)
			return
		}
		log.Inferences++

	case ActTrain:
		startTraining(d, log, i, a, trainRetries)

	case ActGhostView:
		lost := make(map[topology.LinkID]bool, len(a.Links))
		for _, l := range a.Links {
			lost[l] = true
		}
		d.Localizer.View = func(l topology.LinkID) bool { return !lost[l] }
		log.GhostAt, log.HasGhost = now, true

	case ActRefreshView:
		d.Localizer.View = nil
		log.RefreshAt, log.HasRefresh = now, true

	case ActTransport:
		if a.Retries == 0 && a.RetryLatency == 0 {
			d.Net.SetTransport(nil)
			return
		}
		d.Net.SetTransport(&netsim.Transport{Retries: a.Retries, RetryLatency: a.RetryLatency})
	}
}

// startTraining starts the collective job, re-trying on ErrNotRunning
// while the task's containers finish their phased startup.
func startTraining(d *hunter.Deployment, log *RunLog, i int, a Action, retriesLeft int) {
	task := log.Tasks[a.Ref]
	if task == nil {
		log.errf("action %d trains action %d which never submitted", i, a.Ref)
		return
	}
	job, err := trainsim.Start(d.Engine, d.Net, task, trainsim.Config{IterBase: a.Window})
	if err == trainsim.ErrNotRunning && retriesLeft > 0 {
		d.Engine.After(trainRetryEvery, fmt.Sprintf("scenario/train-retry/%d", i), func(time.Duration) {
			startTraining(d, log, i, a, retriesLeft-1)
		})
		return
	}
	if err != nil {
		log.errf("action %d train: %v", i, err)
		return
	}
	log.Jobs[i] = job
}
