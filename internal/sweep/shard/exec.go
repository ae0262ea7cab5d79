package shard

import (
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
)

// ExecConfig builds a Launcher that fork/execs one OS process per worker
// attempt — the production topology, where a SIGKILL (from chaos, the
// kernel OOM killer, or the supervisor's own lease enforcement) really
// destroys the worker. Exit code 2 from a worker is the permanent-failure
// convention (configuration mismatch; see sweep.MismatchError): the
// supervisor stops retrying. Every other nonzero exit, and every
// signal-death, is a crash worth a backed-off restart.
type ExecConfig struct {
	// Bin is the worker executable (typically os.Executable()).
	Bin string
	// Args builds the attempt's argv (without the program name). It must
	// route the worker to its shard — e.g. -shard i/N — so that it writes
	// the file the supervisor watches, Path(Supervisor.Out, i, N).
	Args func(shardIdx, attempt int) []string
	// Env, when non-nil, appends attempt-specific variables to the
	// inherited environment.
	Env func(shardIdx, attempt int) []string
	// Stderr receives worker stderr (nil = this process's stderr).
	Stderr io.Writer
}

// Launcher returns the fork/exec Launcher.
func (c ExecConfig) Launcher() Launcher {
	return func(ctx context.Context, shardIdx, attempt int) (Handle, error) {
		cmd := exec.Command(c.Bin, c.Args(shardIdx, attempt)...)
		stderr := c.Stderr
		if stderr == nil {
			stderr = os.Stderr
		}
		cmd.Stdout, cmd.Stderr = stderr, stderr
		if c.Env != nil {
			cmd.Env = append(os.Environ(), c.Env(shardIdx, attempt)...)
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		h := &execHandle{cmd: cmd, done: make(chan error, 1)}
		go h.wait()
		return h, nil
	}
}

// execHandle supervises one child process.
type execHandle struct {
	cmd  *exec.Cmd
	done chan error
}

// wait classifies the child's exit: 0 = shard complete, 2 = permanent
// (configuration mismatch — restarting reruns the same refusal), anything
// else (including signal deaths, which Go reports as ExitCode -1) = crash.
func (h *execHandle) wait() {
	err := h.cmd.Wait()
	var xe *exec.ExitError
	if errors.As(err, &xe) && xe.ExitCode() == 2 {
		err = &Permanent{Err: err}
	}
	h.done <- err
}

func (h *execHandle) Done() <-chan error { return h.done }
func (h *execHandle) Kill()              { _ = h.cmd.Process.Kill() }
