package htm

import "fmt"

// AbortCode identifies why a transaction aborted, mirroring the failure
// cause captured in the POWER TEXASR register.
type AbortCode int

const (
	// CodeTxConflict: a conflicting access by another transaction.
	CodeTxConflict AbortCode = iota
	// CodeNonTxConflict: a conflicting non-transactional access (plain
	// load/store, suspended-transaction access, or SGL acquisition).
	CodeNonTxConflict
	// CodeCapacity: the transaction overflowed the shared TMCAM budget.
	CodeCapacity
	// CodeExplicit: the program requested the abort (tabort.).
	CodeExplicit
)

// String implements fmt.Stringer.
func (c AbortCode) String() string {
	switch c {
	case CodeTxConflict:
		return "tx-conflict"
	case CodeNonTxConflict:
		return "non-tx-conflict"
	case CodeCapacity:
		return "capacity"
	case CodeExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("AbortCode(%d)", int(c))
	}
}

// Abort is the abort notification delivered when a transaction fails. It
// is thrown as a panic from transactional operations and recovered by the
// runtime's retry loop (see Run); it also satisfies error for callers
// that surface it. Delivered values are shared, one per cause, so an
// abort allocates nothing; they must not be modified.
type Abort struct {
	// Code is the abort cause.
	Code AbortCode
}

var aborts = [...]Abort{{CodeTxConflict}, {CodeNonTxConflict}, {CodeCapacity}, {CodeExplicit}}

// Error implements error.
func (a *Abort) Error() string { return "htm: transaction aborted: " + a.Code.String() }

// Run executes body inside transaction tx's dynamic extent and converts
// an abort panic into a returned *Abort. On normal return the transaction
// has committed. This is the bridge between the hardware-like control
// flow (aborts unwind to tbegin.) and Go control flow.
// The body must not call Commit itself; Run commits on normal return.
func Run(t *Thread, mode Mode, body func(tx *Tx)) (abort *Abort) {
	tx := t.Begin(mode)
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(*Abort); ok {
				abort = a
				return
			}
			tx.forceAbortQuiet() // caller bug: don't leak a zombie tx
			panic(r)
		}
	}()
	body(tx)
	tx.Commit()
	return nil
}
