package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// streamFlags are the flags that shape a worker's evaluation stream
// (model, seed, budget, whole-model), declared once for `prose tune`
// and `prose worker`. A coordinator and its workers must agree on all
// of them, or the fingerprint handshake retires the worker.
type streamFlags struct {
	model *string
	opts  *core.Options // Seed, MaxEvaluations and WholeModel
}

// newStreamFlags registers the stream flags on fs; parsing fs sets the
// model name and opts' Seed, MaxEvaluations and WholeModel fields.
func newStreamFlags(fs *flag.FlagSet, opts *core.Options) streamFlags {
	fs.Int64Var(&opts.Seed, "seed", 1, "seed for the Eq. (1) runtime-noise model")
	fs.IntVar(&opts.MaxEvaluations, "budget", 0, "max distinct variant evaluations (0 = model default)")
	fs.BoolVar(&opts.WholeModel, "whole-model", false, "guide the search by whole-model time (paper IV-C)")
	return streamFlags{model: modelFlag(fs), opts: opts}
}

// workerArgs is the `prose worker` flag list that reproduces this
// stream, beating every heartbeat: the one definition behind both the
// spawned workers' argv and the -listen connect hint.
func (s streamFlags) workerArgs(heartbeat time.Duration) []string {
	return []string{
		"-model", *s.model,
		fmt.Sprintf("-seed=%d", s.opts.Seed),
		fmt.Sprintf("-budget=%d", s.opts.MaxEvaluations),
		fmt.Sprintf("-whole-model=%t", s.opts.WholeModel),
		fmt.Sprintf("-heartbeat=%s", heartbeat),
	}
}

// connectHint is the command line an off-host worker runs to join a
// `prose tune -listen` coordinator at addr.
func (s streamFlags) connectHint(addr string, heartbeat time.Duration) string {
	return "prose worker -connect " + addr + " " + strings.Join(s.workerArgs(heartbeat), " ")
}

// parseWorker parses `prose worker`'s flags: the stream flags, plus the
// serving configuration (-connect and its reconnect knobs, the
// heartbeat and the -fault-* injection) left in a NetServeConfig with
// Eval and Fingerprint still to fill.
func parseWorker(args []string) (streamFlags, *fleet.NetServeConfig, error) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	sf := newStreamFlags(fs, &core.Options{})
	nc := &fleet.NetServeConfig{}
	fs.DurationVar(&nc.Heartbeat, "heartbeat", fleet.DefaultHeartbeat, "heartbeat interval while evaluating")
	fs.StringVar(&nc.Addr, "connect", "", "dial a 'prose tune -listen' coordinator over TCP instead of serving stdin/stdout; reconnects with session resume on connection loss")
	fs.StringVar(&nc.Session, "session", "", "with -connect: stable session ID for lease resume across reconnects (default: random)")
	fs.IntVar(&nc.HeartbeatMissLimit, "heartbeat-miss-limit", fleet.DefaultHeartbeatMissLimit, "with -connect: consecutive failed heartbeat sends before the worker reconnects")
	fs.DurationVar(&nc.ReconnectBackoff, "reconnect-backoff", fleet.DefaultReconnectBackoff, "with -connect: base backoff between dial attempts (doubles, capped)")
	fs.IntVar(&nc.MaxDials, "max-dials", fleet.DefaultMaxDials, "with -connect: dial attempts per reconnect before giving up")
	fs.Float64Var(&nc.Fault.KillRate, "fault-kill-rate", 0, "fault injection: SIGKILL self before evaluating with this probability per (key, attempt)")
	fs.Int64Var(&nc.Fault.Seed, "fault-seed", 1, "fault injection: seed for -fault-kill-rate decisions")
	fs.StringVar(&nc.Fault.CrashKey, "fault-crash-key", "", "fault injection: SIGKILL self when leased this assignment key")
	fs.StringVar(&nc.Fault.WedgeKey, "fault-wedge-key", "", "fault injection: wedge (stop heartbeating) on this key's first attempt")
	fs.StringVar(&nc.Fault.SlowKey, "fault-slow-key", "", "fault injection: delay the result for this key's first attempt by -fault-slow")
	fs.DurationVar(&nc.Fault.Slow, "fault-slow", 0, "fault injection: delay applied with -fault-slow-key")
	return sf, nc, fs.Parse(args)
}

// cmdWorker serves evaluations to a `prose tune -workers N` coordinator
// over stdin/stdout. It is spawned by the coordinator, not usually run
// by hand: stdin carries lease messages, stdout carries heartbeats and
// results, stderr passes through for diagnostics.
//
// The stream flags must match the coordinator's; the fingerprint
// handshake at startup rejects any drift. The -fault-* flags are fault
// injection for the fleet's own tests and smoke runs.
func cmdWorker(args []string) error {
	sf, nc, err := parseWorker(args)
	if err != nil {
		return err
	}
	m, err := getModel(*sf.model)
	if err != nil {
		return err
	}
	if nc.Addr == "" {
		// The coordinator owns this process's lifetime: a ^C at the
		// terminal reaches the whole process group, but the orderly
		// path is the coordinator's shutdown message (or it killing
		// us), not the worker racing it to exit mid-lease. A -connect
		// worker runs by hand on a remote host instead, so it keeps
		// default signal handling.
		signal.Ignore(os.Interrupt, syscall.SIGTERM)
	}
	t, err := core.New(m, *sf.opts)
	if err != nil {
		return err
	}
	nc.Eval, nc.Fingerprint = t, t.Fingerprint()
	if nc.Addr != "" {
		return fleet.ServeNet(*nc)
	}
	return fleet.Serve(fleet.ServeConfig{
		Transport:   fleet.NewPipeTransport(os.Stdin, os.Stdout),
		Eval:        t,
		Fingerprint: nc.Fingerprint,
		Heartbeat:   nc.Heartbeat,
		Fault:       nc.Fault,
	})
}
