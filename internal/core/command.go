package core

import (
	"fmt"

	"repro/internal/frac"
	"repro/internal/model"
)

// This file is the exported replay surface of the engine: a Scheduler
// mutation expressed as data. A (Config, System, []Command) triple is a
// complete, serializable description of a run — the engine is
// deterministic, so applying the same log to a fresh scheduler
// reproduces the original schedule byte for byte (StateDigest in
// digest.go is the cheap equality witness). internal/serve builds its
// shard snapshot/restore machinery on exactly this property: a shard
// snapshot is its seed system plus the command log applied so far.

// CommandOp enumerates the replayable scheduler mutations.
//
//lint:exhaustive ignore=numCommandOps -- sentinel counts the ops, it is not one
type CommandOp uint8

const (
	// OpJoin adds a task, which waits in admission order while
	// condition J refuses it (Scheduler.Join refuses instead).
	OpJoin CommandOp = iota
	// OpLeave removes a task once rule L permits (Scheduler.Depart).
	OpLeave
	// OpReweight requests a weight change (Scheduler.Initiate).
	OpReweight
	// OpDelay postpones the next release by Arg slots (Scheduler.DelayNext).
	OpDelay
	// OpAbsent marks absolute subtask index Arg absent (Scheduler.MarkAbsent).
	OpAbsent

	numCommandOps // number of ops; keep last
)

// commandOpNames is indexed by CommandOp and doubles as the wire
// encoding (MarshalText/UnmarshalText).
var commandOpNames = [numCommandOps]string{
	OpJoin:     "join",
	OpLeave:    "leave",
	OpReweight: "reweight",
	OpDelay:    "delay",
	OpAbsent:   "absent",
}

func (op CommandOp) String() string {
	if op < numCommandOps {
		return commandOpNames[op]
	}
	return fmt.Sprintf("CommandOp(%d)", uint8(op))
}

// MarshalText implements encoding.TextMarshaler with the lowercase op
// name, so Command serializes naturally to JSON.
func (op CommandOp) MarshalText() ([]byte, error) {
	if op >= numCommandOps {
		return nil, fmt.Errorf("core: unknown command op %d", uint8(op))
	}
	return []byte(commandOpNames[op]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (op *CommandOp) UnmarshalText(text []byte) error {
	for i, name := range commandOpNames {
		if name == string(text) {
			*op = CommandOp(i)
			return nil
		}
	}
	return fmt.Errorf("core: unknown command op %q", text)
}

// Command is one externally-driven scheduler mutation in replayable
// form. At is the slot the command was (or is to be) applied in:
// commands apply at the start of slot At, before the slot is stepped.
type Command struct {
	At   model.Time `json:"at"`
	Op   CommandOp  `json:"op"`
	Task string     `json:"task,omitempty"`
	// Weight is the join weight (OpJoin) or reweight target (OpReweight).
	Weight frac.Rat `json:"weight,omitempty"`
	// Group is the optional tie-break group of a joining task.
	Group string `json:"group,omitempty"`
	// Arg is the IS separation (OpDelay) or absolute subtask index
	// (OpAbsent).
	Arg int64 `json:"arg,omitempty"`
}

func (c Command) String() string {
	switch c.Op {
	case OpJoin:
		return fmt.Sprintf("t=%d join %s w=%s", c.At, c.Task, c.Weight)
	case OpReweight:
		return fmt.Sprintf("t=%d reweight %s -> %s", c.At, c.Task, c.Weight)
	case OpDelay, OpAbsent:
		return fmt.Sprintf("t=%d %s %s arg=%d", c.At, c.Op, c.Task, c.Arg)
	case OpLeave:
		return fmt.Sprintf("t=%d leave %s", c.At, c.Task)
	}
	return fmt.Sprintf("t=%d %s %s", c.At, c.Op, c.Task)
}

// Apply executes the command against the scheduler at the current time.
// The command's At must equal Now(): a command log replays against the
// same slots it was recorded against, or the schedule it produces is a
// different schedule.
//
//lint:allocok command application allocates task state and log entries; the cost is per command, not per slot
func (s *Scheduler) Apply(c Command) error {
	if c.At != s.now {
		return fmt.Errorf("core: command %s applied at t=%d (log and clock disagree)", c, s.now)
	}
	switch c.Op { // exhaustive: adding an op must extend this dispatch (eventexhaust)
	case OpJoin:
		return s.join(model.Spec{Name: c.Task, Weight: c.Weight, Group: c.Group}, true)
	case OpLeave:
		return s.Depart(c.Task)
	case OpReweight:
		return s.Initiate(c.Task, c.Weight)
	case OpDelay:
		return s.DelayNext(c.Task, c.Arg)
	case OpAbsent:
		return s.MarkAbsent(c.Task, c.Arg)
	}
	return fmt.Errorf("core: unknown command op %d", uint8(c.Op))
}

// ReplayLog advances the scheduler to horizon, applying each logged
// command at the start of its recorded slot. The log must be ordered by
// At (commands within one slot apply in log order, reproducing the
// original application order); a command behind Now() or out of order
// is an error. Replay stops at the first failing command — a log
// recorded from successfully applied mutations replays without error.
func (s *Scheduler) ReplayLog(log []Command, horizon model.Time) error {
	i := 0
	for {
		for i < len(log) && log[i].At == s.now {
			if err := s.Apply(log[i]); err != nil {
				return fmt.Errorf("core: replay command %d (%s): %w", i, log[i], err)
			}
			i++
		}
		if i < len(log) && log[i].At < s.now {
			return fmt.Errorf("core: replay command %d (%s) is behind t=%d (log not ordered by At)",
				i, log[i], s.now)
		}
		if s.now >= horizon {
			if i < len(log) {
				return fmt.Errorf("core: replay horizon %d leaves %d commands unapplied", horizon, len(log)-i)
			}
			return nil
		}
		s.Step()
	}
}

// Replay constructs a scheduler over the seed system and replays the
// command log to horizon. It is the restore half of snapshotting: the
// triple (cfg, sys, log) recorded from a live scheduler rebuilds a
// byte-identical one.
func Replay(cfg Config, sys model.System, log []Command, horizon model.Time) (*Scheduler, error) {
	s, err := New(cfg, sys)
	if err != nil {
		return nil, err
	}
	if err := s.ReplayLog(log, horizon); err != nil {
		return nil, err
	}
	return s, nil
}
