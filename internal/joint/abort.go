package joint

import "fmt"

// AbortedError reports a planning run abandoned at a deadline checkpoint:
// the deterministic surgery-op budget (Options.SurgeryBudget) was exceeded.
// The partial state is discarded — an aborted Plan call never returns a
// plan — so the caller's previous plan remains the valid one (the control
// plane's stale-plan fallback).
type AbortedError struct {
	// SurgeryOps is the deterministic work total charged when the abort
	// fired, in scheduled surgery optimizations.
	SurgeryOps int64
	// Budget is the configured Options.SurgeryBudget.
	Budget int64
}

// Error implements error.
func (e *AbortedError) Error() string {
	return fmt.Sprintf("joint: plan aborted: surgery budget %d exceeded at %d ops", e.Budget, e.SurgeryOps)
}

// checkpoint is the planner's deadline check on the state's ledger. spent
// counts scheduled surgery ops, not executed ones (a table hit costs what an
// optimizer run does), which is what makes a budget abort fire at the same
// point of every run of the same input, with or without tables.
func (st *state) checkpoint() error {
	if b := st.opt.SurgeryBudget; b > 0 && st.spent > b {
		return &AbortedError{SurgeryOps: st.spent, Budget: b}
	}
	return nil
}
