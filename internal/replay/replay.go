// Package replay re-executes a simulation from its captured trace. The
// NDJSON trace a run emits (internal/trace) records every stochastic
// decision the run made — each overhearing-lottery verdict, each
// fault-injected PHY loss, each crash/recovery firing — in scheduler
// order. Extract parses those decision events back out; Player injects
// them at the corresponding decision sites via scenario.ReplayHooks; Run
// ties the two together and verifies the re-executed run emits a
// byte-identical event stream.
//
// What replay pins vs. what it still derives from the config: the fault
// plan's RNG path (crash schedule, Gilbert–Elliott loss chains) and the
// lottery *verdicts* come from the trace — replaying a faulted run does
// not need the plan's crash/loss parameters, and replaying a randomized
// scheme does not need the original overhearing probability. Mobility,
// traffic, DCF backoff and ATIM jitter are re-derived from the config's
// seed streams, which the config must therefore still carry; the lottery
// override deliberately lets the configured policy draw first (it shares
// the per-node MAC stream with DCF backoff) and only replaces its
// verdict, so the stream stays aligned. DESIGN.md §14 spells out the
// model.
package replay

import (
	"fmt"
	"strconv"
	"strings"

	"rcast/internal/core"
	"rcast/internal/fault"
	"rcast/internal/mac"
	"rcast/internal/phy"
	"rcast/internal/scenario"
	"rcast/internal/sim"
	"rcast/internal/trace"
)

// Lottery is one recorded overhearing-lottery verdict: at At, listener
// Node heard From advertise at Level and decided to stay awake (or not).
type Lottery struct {
	At    sim.Time
	Node  phy.NodeID // listener
	From  phy.NodeID // advertiser
	Level core.Level
	Stay  bool
}

// Loss is one recorded fault-injected PHY loss: at At, receiver Rx lost a
// frame transmitted by Tx to the LossModel.
type Loss struct {
	At sim.Time
	Rx phy.NodeID
	Tx phy.NodeID
}

// Decisions is the stochastic decision stream extracted from a trace, in
// scheduler order within each kind.
type Decisions struct {
	Lotteries []Lottery
	Losses    []Loss
	// ChanLosses are the propagation model's transmit-time rejections
	// (chan-lost drops) in consultation order. Replay injects them in
	// place of the model's verdicts, so a faded run replays even without
	// re-deriving the channel hash — and a divergence in channel behaviour
	// is caught as an unconsumed or mismatched decision.
	ChanLosses []Loss
	// Crashes pairs each effective crash with its observed recovery
	// (RecoverAt 0 = none observed), in firing order — which is the
	// injector's scheduling order, so re-scheduling them reproduces the
	// original same-instant FIFO interleave.
	Crashes []fault.Crash
}

// levelByName inverts core.Level.String for the lottery detail field.
var levelByName = map[string]core.Level{
	core.LevelNone.String():          core.LevelNone,
	core.LevelRandomized.String():    core.LevelRandomized,
	core.LevelUnconditional.String(): core.LevelUnconditional,
}

// parseNode parses the "n<id>"/"bcast" rendering of phy.NodeID.String.
func parseNode(s string) (phy.NodeID, error) {
	if s == "bcast" {
		return phy.Broadcast, nil
	}
	if len(s) < 2 || s[0] != 'n' {
		return 0, fmt.Errorf("bad node %q", s)
	}
	id, err := strconv.Atoi(s[1:])
	if err != nil {
		return 0, fmt.Errorf("bad node %q", s)
	}
	return phy.NodeID(id), nil
}

// field extracts the value of a "key=value" token.
func field(tok, key string) (string, bool) {
	if !strings.HasPrefix(tok, key) || len(tok) <= len(key) || tok[len(key)] != '=' {
		return "", false
	}
	return tok[len(key)+1:], true
}

// Extract parses the decision events out of a captured trace. Events that
// are not decisions (routing lifecycle, wake/sleep, non-fault PHY drops…)
// are skipped; a decision event whose detail does not parse is an error —
// the trace cannot drive a replay if its decisions are unreadable.
func Extract(events []trace.Event) (*Decisions, error) {
	d := &Decisions{}
	// openCrash maps a node to its pending entry in d.Crashes so the next
	// recovery event closes the right crash.
	openCrash := make(map[phy.NodeID]int)
	for i, e := range events {
		switch e.Kind {
		case trace.KindLottery:
			// Detail: "from=<node> level=<level> stay-awake|sleep"
			toks := strings.Fields(e.Detail)
			if len(toks) != 3 {
				return nil, fmt.Errorf("replay: event %d: bad lottery detail %q", i, e.Detail)
			}
			fromS, ok1 := field(toks[0], "from")
			lvlS, ok2 := field(toks[1], "level")
			lvl, ok3 := levelByName[lvlS]
			if !ok1 || !ok2 || !ok3 || (toks[2] != "stay-awake" && toks[2] != "sleep") {
				return nil, fmt.Errorf("replay: event %d: bad lottery detail %q", i, e.Detail)
			}
			from, err := parseNode(fromS)
			if err != nil {
				return nil, fmt.Errorf("replay: event %d: %v", i, err)
			}
			d.Lotteries = append(d.Lotteries, Lottery{
				At: e.At, Node: e.Node, From: from, Level: lvl,
				Stay: toks[2] == "stay-awake",
			})
		case trace.KindPhyDrop:
			// Fault-injected and channel-declined losses are decisions;
			// collision and missed-asleep drops are consequences the replay
			// re-derives.
			isChan := false
			rest, ok := strings.CutPrefix(e.Detail, phy.LossFault+" ")
			if !ok {
				rest, ok = strings.CutPrefix(e.Detail, phy.LossChannel+" ")
				isChan = true
			}
			if !ok {
				continue
			}
			toks := strings.Fields(rest)
			if len(toks) != 2 {
				return nil, fmt.Errorf("replay: event %d: bad phy-drop detail %q", i, e.Detail)
			}
			fromS, ok1 := field(toks[0], "from")
			if _, ok2 := field(toks[1], "to"); !ok1 || !ok2 {
				return nil, fmt.Errorf("replay: event %d: bad phy-drop detail %q", i, e.Detail)
			}
			tx, err := parseNode(fromS)
			if err != nil {
				return nil, fmt.Errorf("replay: event %d: %v", i, err)
			}
			if isChan {
				d.ChanLosses = append(d.ChanLosses, Loss{At: e.At, Rx: e.Node, Tx: tx})
			} else {
				d.Losses = append(d.Losses, Loss{At: e.At, Rx: e.Node, Tx: tx})
			}
		case trace.KindCrash:
			openCrash[e.Node] = len(d.Crashes)
			d.Crashes = append(d.Crashes, fault.Crash{Node: int(e.Node), At: e.At})
		case trace.KindRecover:
			idx, ok := openCrash[e.Node]
			if !ok {
				return nil, fmt.Errorf("replay: event %d: recovery of %v without a crash", i, e.Node)
			}
			d.Crashes[idx].RecoverAt = e.At
			delete(openCrash, e.Node)
		}
	}
	return d, nil
}

// Player injects a Decisions stream at the simulation's decision sites.
// Each decision is consumed strictly in order with its site context
// matched against the recording; the first mismatch is latched (the hook
// then falls back to the live verdict so the run can finish and be
// diffed) and reported by Err/Finish.
type Player struct {
	d          *Decisions
	li, xi, ci int // cursors: next lottery, next fault loss, next chan loss
	err        error
}

// NewPlayer creates a Player over an extracted decision stream.
func NewPlayer(d *Decisions) *Player { return &Player{d: d} }

// fail latches the first mismatch.
func (p *Player) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first decision-site mismatch, if any.
func (p *Player) Err() error { return p.err }

// Finish reports the first mismatch or any recorded decisions the run
// never consumed — either way the replay did not follow the recording.
func (p *Player) Finish() error {
	if p.err != nil {
		return p.err
	}
	if p.li != len(p.d.Lotteries) {
		return fmt.Errorf("replay: %d of %d recorded lotteries never consumed (next: %+v)",
			len(p.d.Lotteries)-p.li, len(p.d.Lotteries), p.d.Lotteries[p.li])
	}
	if p.xi != len(p.d.Losses) {
		return fmt.Errorf("replay: %d of %d recorded fault losses never consumed (next: %+v)",
			len(p.d.Losses)-p.xi, len(p.d.Losses), p.d.Losses[p.xi])
	}
	if p.ci != len(p.d.ChanLosses) {
		return fmt.Errorf("replay: %d of %d recorded channel losses never consumed (next: %+v)",
			len(p.d.ChanLosses)-p.ci, len(p.d.ChanLosses), p.d.ChanLosses[p.ci])
	}
	return nil
}

// lottery is the scenario.ReplayHooks.Lottery hook.
func (p *Player) lottery(now sim.Time, node phy.NodeID, a mac.Announcement, policySays bool) bool {
	if p.li >= len(p.d.Lotteries) {
		p.fail("replay: lottery at %v node=%v from=%v beyond the %d recorded",
			now, node, a.From, len(p.d.Lotteries))
		return policySays
	}
	rec := p.d.Lotteries[p.li]
	if rec.At != now || rec.Node != node || rec.From != a.From || rec.Level != a.Level {
		p.fail("replay: lottery %d mismatch: recorded %+v, live at=%v node=%v from=%v level=%v",
			p.li, rec, now, node, a.From, a.Level)
		return policySays
	}
	p.li++
	return rec.Stay
}

// Lose implements phy.LossModel: a frame is lost exactly when the next
// recorded fault loss matches this consultation. Negative consultations
// were not recorded, so they match nothing and pass the frame through.
func (p *Player) Lose(now sim.Time, tx, rx phy.NodeID) bool {
	if p.xi < len(p.d.Losses) {
		if rec := p.d.Losses[p.xi]; rec.At == now && rec.Rx == rx && rec.Tx == tx {
			p.xi++
			return true
		}
	}
	return false
}

// chanLossPlayer adapts the Player's channel-loss cursor to phy.LossModel
// (the Player itself carries Lose for the fault-loss stream).
type chanLossPlayer struct{ p *Player }

// Lose implements phy.LossModel over the recorded chan-lost stream, with
// the same head-match discipline as the fault-loss hook: the propagation
// path consults it once per in-reach candidate in consultation order, and
// a frame is channel-lost exactly when the next recorded decision matches.
func (c chanLossPlayer) Lose(now sim.Time, tx, rx phy.NodeID) bool {
	p := c.p
	if p.ci < len(p.d.ChanLosses) {
		if rec := p.d.ChanLosses[p.ci]; rec.At == now && rec.Rx == rx && rec.Tx == tx {
			p.ci++
			return true
		}
	}
	return false
}

// Hooks returns the scenario wiring for this player.
func (p *Player) Hooks() *scenario.ReplayHooks {
	return &scenario.ReplayHooks{
		Lottery:          p.lottery,
		Loss:             p,
		ChanLoss:         chanLossPlayer{p: p},
		CrashSchedule:    p.d.Crashes,
		UseCrashSchedule: true,
	}
}

// Run re-executes cfg under the decision stream of a recorded trace and
// verifies the replayed run is event-identical to the recording. cfg must
// be the recorded run's configuration (sinks excluded); the returned
// events are the replayed trace. A divergence is an error naming the
// first differing event.
func Run(cfg scenario.Config, recorded []trace.Event) (*scenario.Result, []trace.Event, error) {
	d, err := Extract(recorded)
	if err != nil {
		return nil, nil, err
	}
	p := NewPlayer(d)
	rec := trace.NewRecorder()
	if cfg.Trace != nil {
		cfg.Trace = trace.Multi{rec, cfg.Trace}
	} else {
		cfg.Trace = rec
	}
	cfg.Replay = p.Hooks()
	res, err := scenario.Run(cfg)
	if err != nil {
		return nil, rec.Events(), err
	}
	if err := p.Finish(); err != nil {
		return res, rec.Events(), err
	}
	if div, diverged := trace.Diff(recorded, rec.Events()); diverged {
		recordedAt, replayedAt := div.Sides()
		return res, rec.Events(), fmt.Errorf("replay: diverged at event %d:\n  recorded: %s\n  replayed: %s",
			div.Index, recordedAt, replayedAt)
	}
	return res, rec.Events(), nil
}
