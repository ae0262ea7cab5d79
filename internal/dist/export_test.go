package dist

import "repro/internal/runtime"

// ScheduleOf returns the reduction schedule a ReducedGreedyMachine took
// from its source at Init.
func ScheduleOf(m runtime.Machine) []Step { return m.(*ReducedGreedyMachine).sched }
