package engine

import (
	"fmt"
	"runtime/debug"
)

// TaskPanicError is the typed error a recovered task panic is converted
// into. It carries the panic value and the panicking goroutine's stack so
// the quarantine report can say *what* blew up, not just that something
// did. Callers detect it with errors.As and decide whether to quarantine
// the task (continue the run) or fail the run.
type TaskPanicError struct {
	// Index is the task index within the ForEach call (or the caller's
	// index for Engine.Recover).
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error names the panicking task and the recovered value; the stack
// stays in Stack.
func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("engine: task %d panicked: %v", e.Index, e.Value)
}

// Recover runs fn, converting a panic into a *TaskPanicError and counting
// it in Metrics.TaskPanics. It is the per-task isolation boundary: the
// generation core wraps each fault×config task in Recover so a panicking
// device model quarantines one task instead of killing the process.
func (e *Engine) Recover(index int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e.panics.Add(1)
			err = &TaskPanicError{Index: index, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
