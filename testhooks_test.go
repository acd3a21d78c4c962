package rlm

import "repro/internal/bitstream"

// withSerialCommit disables the two-stage commit pipeline: every burst is
// awaited right after it is enqueued, so nothing is in flight between
// operations. Configuration memory and cycle accounting are bit-identical
// either way — the pipelined/serial twins pin that down.
func withSerialCommit() Option {
	return func(c *config) { c.serialCommit = true }
}

// withFaultHook attaches a fault plan to the system's transport. The journal
// cannot persist it: pass it again to Recover to keep the plan attached.
func withFaultHook(h bitstream.FaultHook) Option {
	return func(c *config) { c.faultHook = h }
}
