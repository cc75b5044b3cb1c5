package mpi

import "fmt"

// ErrorMode is the MPI error-handler model (MPI_ERRORS_ARE_FATAL /
// MPI_ERRORS_RETURN) applied to a world. The default, ErrorsAreFatal,
// panics exactly as the runtime always has; ErrorsReturn instead
// records a typed *MPIError on the rank that suffered it and lets the
// offending call return, so applications (and the fault-tolerance
// machinery) can observe and handle the error class.
type ErrorMode int

// Error-handler modes.
const (
	ErrorsAreFatal ErrorMode = iota
	ErrorsReturn
)

// String implements fmt.Stringer.
func (m ErrorMode) String() string {
	if m == ErrorsReturn {
		return "MPI_ERRORS_RETURN"
	}
	return "MPI_ERRORS_ARE_FATAL"
}

// ErrClass is the typed error class of an MPIError, mirroring the MPI
// error classes relevant to RMA and fault tolerance.
type ErrClass int

// Error classes.
const (
	// ErrOther is any error without a more specific class.
	ErrOther ErrClass = iota
	// ErrRMARange: an RMA operation addressed memory outside the
	// target's exposed window (MPI_ERR_RMA_RANGE).
	ErrRMARange
	// ErrRMAAttach: misuse of dynamic-window attach/detach
	// (MPI_ERR_RMA_ATTACH).
	ErrRMAAttach
	// ErrProcFailed: the operation's peer process has failed and no
	// recovery path exists (MPI_ERR_PROC_FAILED, ULFM).
	ErrProcFailed
	// ErrMessageLost: the transport exhausted its retransmission
	// budget without an acknowledgment.
	ErrMessageLost
	// ErrBacklog: the flow-control credit window toward a target
	// stayed exhausted past the configured timeout — the target's AM
	// queue is full and not draining (MPI_ERR_BACKLOG).
	ErrBacklog
	// ErrRMASync: an RMA operation was issued outside an epoch that
	// covers its target — no epoch at all, or a target outside the
	// PSCW access group (MPI_ERR_RMA_SYNC).
	ErrRMASync
)

// String implements fmt.Stringer.
func (c ErrClass) String() string {
	switch c {
	case ErrRMARange:
		return "MPI_ERR_RMA_RANGE"
	case ErrRMAAttach:
		return "MPI_ERR_RMA_ATTACH"
	case ErrProcFailed:
		return "MPI_ERR_PROC_FAILED"
	case ErrMessageLost:
		return "MPI_ERR_MESSAGE_LOST"
	case ErrBacklog:
		return "MPI_ERR_BACKLOG"
	case ErrRMASync:
		return "MPI_ERR_RMA_SYNC"
	default:
		return "MPI_ERR_OTHER"
	}
}

// MPIError is a typed runtime error surfaced under ErrorsReturn.
type MPIError struct {
	Class ErrClass
	Rank  int // world rank the error was raised on
	Msg   string
}

// Error implements error.
func (e *MPIError) Error() string {
	return fmt.Sprintf("%v on rank %d: %s", e.Class, e.Rank, e.Msg)
}

// raise reports a runtime error on this rank per the world's error
// mode: panic with exactly the given message under ErrorsAreFatal (the
// historical behaviour), or record it for Err() under ErrorsReturn.
// It reports whether the caller should abort the operation (always
// true in return mode; fatal mode never returns).
func (r *Rank) raise(class ErrClass, format string, args ...interface{}) bool {
	msg := fmt.Sprintf(format, args...)
	if r.w.cfg.Errors != ErrorsReturn {
		panic(msg)
	}
	err := &MPIError{Class: class, Rank: r.id, Msg: msg}
	if r.lastErr == nil {
		r.lastErr = err
	}
	r.errCount++
	return true
}

// Err returns the first unconsumed *MPIError raised on this rank under
// ErrorsReturn, or nil. The error persists until ClearErr.
func (r *Rank) Err() *MPIError { return r.lastErr }

// ClearErr discards the recorded error, allowing the next raised error
// to be captured.
func (r *Rank) ClearErr() { r.lastErr = nil }

// ErrCount returns the total number of errors raised on this rank
// under ErrorsReturn (including ones overwritten before being read).
func (r *Rank) ErrCount() int64 { return r.errCount }
