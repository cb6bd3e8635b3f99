// Package scenario is the adversarial test-harness layer: seeded
// scenario packs — a fault schedule, the ground-truth ledger it
// produces, and a per-pack scorer — that stress SkeletonHunter with
// failure shapes the clean single-fault campaigns never exercise.
//
// A Schedule is a declarative, serializable list of timed actions
// (inject/clear faults, submit/finish/train tasks, corrupt and refresh
// the localizer's topology view, arm transport-level retry). Install
// registers the actions as engine events on a hunter.Deployment, so a
// pack replays bit-identically at any worker count; ground truth falls
// out of the deployment's fault injector, and score.go turns it plus
// the alarm stream into per-pack precision/recall/TTD.
//
// Three grounded packs ship with the framework (packs.go):
//
//   - flap+ghost: flapping links while the topology view fed to the
//     localizer has lost those links; localization degrades until the
//     view refreshes.
//   - rdma-mask: transport-level retry masks an escalating-loss link
//     until collective-phase traffic collapses.
//   - churn-replay: trace-driven bursty container churn with mixed
//     tenant sizes, stressing skeleton inference and false-positive
//     discipline while hard faults land mid-churn.
package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"skeletonhunter/internal/faults"
	"skeletonhunter/internal/topology"
)

// Kind tags one scheduled action.
type Kind string

const (
	// ActNoop does nothing; Strip replaces removed actions with noops
	// so Ref indices stay stable between a pack and its clean arm.
	ActNoop Kind = "noop"
	// ActInject applies a catalog fault (Issue, plus the Target fields).
	ActInject Kind = "inject"
	// ActInjectLoss applies a parameterized loss rate to Link.
	ActInjectLoss Kind = "inject-loss"
	// ActInjectGray applies a gray failure: Issue is the faults.GrayKind,
	// and Switch, Host+Rail or Link the target.
	ActInjectGray Kind = "inject-gray"
	// ActClear clears the injection opened by the action at Ref.
	ActClear Kind = "clear"
	// ActSubmit submits a training task (TP/PP/DP, Lifetime).
	ActSubmit Kind = "submit"
	// ActFinish gracefully finishes the task submitted at Ref.
	ActFinish Kind = "finish"
	// ActInfer runs skeleton inference over the task submitted at Ref,
	// observing the last Window of traffic.
	ActInfer Kind = "infer"
	// ActTrain starts a collective training job (trainsim) on the task
	// submitted at Ref; Window is the iteration base (0 = default).
	ActTrain Kind = "train"
	// ActGhostView installs a stale topology view that has lost Links.
	ActGhostView Kind = "ghost-view"
	// ActRefreshView restores the synchronized topology view.
	ActRefreshView Kind = "refresh-view"
	// ActTransport arms transport-level retry (Retries, RetryLatency).
	ActTransport Kind = "transport"
)

var validKinds = map[Kind]bool{
	ActNoop: true, ActInject: true, ActInjectLoss: true, ActInjectGray: true, ActClear: true,
	ActSubmit: true, ActFinish: true, ActInfer: true, ActTrain: true,
	ActGhostView: true, ActRefreshView: true, ActTransport: true,
}

// Action is one timed step of a scenario. Which fields matter depends
// on Kind; everything else stays zero.
type Action struct {
	At   time.Duration `json:"at"`
	Kind Kind          `json:"kind"`

	// Fault targeting (inject / inject-loss / inject-gray).
	Issue  int               `json:"issue,omitempty"`
	Link   topology.LinkID   `json:"link,omitempty"`
	Switch topology.NodeID   `json:"switch,omitempty"`
	Host   int               `json:"host,omitempty"`
	Rail   int               `json:"rail,omitempty"`
	Loss   float64           `json:"loss,omitempty"`
	Links  []topology.LinkID `json:"links,omitempty"` // ghost-view's lost set

	// Workload (submit / infer / train).
	TP       int           `json:"tp,omitempty"`
	PP       int           `json:"pp,omitempty"`
	DP       int           `json:"dp,omitempty"`
	Lifetime time.Duration `json:"lifetime,omitempty"`
	Window   time.Duration `json:"window,omitempty"`

	// Transport retry model.
	Retries      int           `json:"retries,omitempty"`
	RetryLatency time.Duration `json:"retry_latency,omitempty"`

	// Ref is the index of the action this one refers back to: the
	// inject a clear undoes, or the submit a finish/infer/train targets.
	Ref int `json:"ref,omitempty"`
}

// Schedule is one seeded scenario: a name, the deterministic seed the
// pack was generated from, the campaign horizon, and the actions in
// non-decreasing time order.
type Schedule struct {
	Name    string        `json:"name"`
	Seed    int64         `json:"seed"`
	Horizon time.Duration `json:"horizon"`
	Actions []Action      `json:"actions"`
}

// Structural limits the codec and validator enforce; hostile or
// corrupted schedules fail fast instead of ballooning the engine.
const (
	MaxActions        = 65536
	MaxHorizon        = 24 * time.Hour
	MaxLinksPerAction = 4096
	MaxNameLen        = 256
)

// Validate checks the schedule's structural invariants: bounded
// horizon and name, time-sorted in-horizon actions, known kinds, sane
// per-kind fields, and back-references that point at the right kind of
// earlier action.
func (s *Schedule) Validate() error {
	if len(s.Name) > MaxNameLen {
		return fmt.Errorf("scenario: name %d bytes exceeds %d", len(s.Name), MaxNameLen)
	}
	if s.Horizon <= 0 || s.Horizon > MaxHorizon {
		return fmt.Errorf("scenario: horizon %v outside (0, %v]", s.Horizon, MaxHorizon)
	}
	if len(s.Actions) > MaxActions {
		return fmt.Errorf("scenario: %d actions exceed %d", len(s.Actions), MaxActions)
	}
	var prev time.Duration
	for i, a := range s.Actions {
		if !validKinds[a.Kind] {
			return fmt.Errorf("scenario: action %d has unknown kind %q", i, a.Kind)
		}
		if a.At < 0 || a.At > s.Horizon {
			return fmt.Errorf("scenario: action %d at %v outside [0, horizon]", i, a.At)
		}
		if a.At < prev {
			return fmt.Errorf("scenario: action %d at %v before predecessor at %v", i, a.At, prev)
		}
		prev = a.At
		if err := s.validateAction(i, a); err != nil {
			return err
		}
	}
	return nil
}

func (s *Schedule) validateAction(i int, a Action) error {
	ref := func(want ...Kind) error {
		if a.Ref < 0 || a.Ref >= i {
			return fmt.Errorf("scenario: action %d ref %d is not an earlier action", i, a.Ref)
		}
		got := s.Actions[a.Ref].Kind
		for _, k := range want {
			if got == k {
				return nil
			}
		}
		return fmt.Errorf("scenario: action %d (%s) refs action %d of kind %s", i, a.Kind, a.Ref, got)
	}
	switch a.Kind {
	case ActInject:
		if a.Issue <= 0 {
			return fmt.Errorf("scenario: action %d inject without issue", i)
		}
	case ActInjectLoss:
		if a.Link == "" {
			return fmt.Errorf("scenario: action %d inject-loss without link", i)
		}
		if a.Loss < 0 || a.Loss > 1 {
			return fmt.Errorf("scenario: action %d loss %v outside [0,1]", i, a.Loss)
		}
	case ActInjectGray:
		switch faults.GrayKind(a.Issue) {
		case faults.GrayCongestionDroop, faults.GrayPartialRTT, faults.GrayFlappingLink:
		default:
			return fmt.Errorf("scenario: action %d inject-gray with unknown gray kind %d", i, a.Issue)
		}
	case ActClear:
		return ref(ActInject, ActInjectLoss, ActInjectGray)
	case ActSubmit:
		if a.TP <= 0 || a.PP <= 0 || a.DP <= 0 {
			return fmt.Errorf("scenario: action %d submit with non-positive parallelism %d/%d/%d", i, a.TP, a.PP, a.DP)
		}
		if a.TP*a.PP*a.DP > 32768 {
			return fmt.Errorf("scenario: action %d submit of %d GPUs exceeds 32768", i, a.TP*a.PP*a.DP)
		}
		if a.Lifetime < 0 {
			return fmt.Errorf("scenario: action %d negative lifetime", i)
		}
	case ActFinish, ActTrain:
		return ref(ActSubmit)
	case ActInfer:
		if a.Window <= 0 {
			return fmt.Errorf("scenario: action %d infer without window", i)
		}
		return ref(ActSubmit)
	case ActGhostView:
		if len(a.Links) == 0 || len(a.Links) > MaxLinksPerAction {
			return fmt.Errorf("scenario: action %d ghost-view with %d links (want 1..%d)", i, len(a.Links), MaxLinksPerAction)
		}
	case ActTransport:
		if a.Retries < 0 || a.Retries > 16 {
			return fmt.Errorf("scenario: action %d retries %d outside [0,16]", i, a.Retries)
		}
		if a.RetryLatency < 0 || a.RetryLatency > time.Second {
			return fmt.Errorf("scenario: action %d retry latency %v outside [0, 1s]", i, a.RetryLatency)
		}
	}
	return nil
}

// Strip returns a copy of the schedule with actions of the given kinds
// replaced by noops. Positions (and therefore Ref indices) are
// preserved, which is what makes a "clean arm" — the same pack minus
// its ghost-view corruption — directly comparable to the full run.
func (s *Schedule) Strip(kinds ...Kind) *Schedule {
	drop := map[Kind]bool{}
	for _, k := range kinds {
		drop[k] = true
	}
	out := *s
	out.Actions = make([]Action, len(s.Actions))
	for i, a := range s.Actions {
		if drop[a.Kind] {
			out.Actions[i] = Action{At: a.At, Kind: ActNoop}
		} else {
			out.Actions[i] = a
		}
	}
	return &out
}

// FlapWindow is one ground-truth down interval of a flapping link.
type FlapWindow struct {
	Link       topology.LinkID
	Start, End time.Duration
}

// FlapWindows draws a seeded flap schedule for each link over
// [0, horizon): alternating up/down phases with exponential jitter
// around the given means. The invariants the ground-truth ledger (and
// the property test) rely on: per link, windows are time-sorted,
// strictly inside [0, horizon], and never overlap — a link is never
// double-downed — so per-link downtime plus uptime sums exactly to the
// horizon.
func FlapWindows(seed int64, links []topology.LinkID, horizon, meanUp, meanDown time.Duration) []FlapWindow {
	if horizon <= 0 || meanUp <= 0 || meanDown <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	draw := func(mean, floor time.Duration) time.Duration {
		d := time.Duration(rng.ExpFloat64() * float64(mean))
		if d < floor {
			d = floor
		}
		return d
	}
	var out []FlapWindow
	for _, link := range links {
		t := draw(meanUp, time.Second) // every link starts up
		for t < horizon {
			down := draw(meanDown, time.Second)
			end := t + down
			if end > horizon {
				end = horizon
			}
			out = append(out, FlapWindow{Link: link, Start: t, End: end})
			t = end + draw(meanUp, time.Second)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
