package sim

import (
	"testing"
	"time"

	"powerlens/internal/hw"
	"powerlens/internal/models"
)

func TestRunTaskFlowEmpty(t *testing.T) {
	p := hw.TX2()
	r := NewExecutor(p, &fixedCtl{level: 5}).RunTaskFlow(nil, time.Second)
	if r.Images != 0 || r.Time != 0 || r.EnergyJ != 0 {
		t.Fatalf("empty flow result = %+v", r)
	}
}

func TestRunTaskZeroImages(t *testing.T) {
	p := hw.TX2()
	r := NewExecutor(p, &fixedCtl{level: 5}).RunTask(models.AlexNet(), 0)
	if r.Images != 0 {
		t.Fatalf("images = %d", r.Images)
	}
}

func TestWindowStatsCPULevelReported(t *testing.T) {
	p := hw.TX2()
	ctl := &windowCountCtl{fixedCtl: fixedCtl{level: 5}}
	e := NewExecutor(p, ctl)
	e.WindowPeriod = 5 * time.Millisecond
	e.RunTask(models.AlexNet(), 3)
	if len(ctl.stats) == 0 {
		t.Fatal("no windows")
	}
	for _, s := range ctl.stats {
		if s.GPULevel != 5 {
			t.Fatalf("window GPU level = %d", s.GPULevel)
		}
		if s.CPULevel != len(p.CPUFreqsHz)-1 {
			t.Fatalf("window CPU level = %d", s.CPULevel)
		}
		if s.GPUBusy < 0 || s.GPUBusy > 1+1e-9 || s.CPUBusy < 0 || s.CPUBusy > 1+1e-9 {
			t.Fatalf("busy fractions out of range: %+v", s)
		}
	}
}

func TestExecutorReuse(t *testing.T) {
	// The same executor must reset cleanly between runs.
	p := hw.TX2()
	e := NewExecutor(p, &fixedCtl{level: 7})
	a := e.RunTask(models.AlexNet(), 2)
	b := e.RunTask(models.AlexNet(), 2)
	if a.EnergyJ != b.EnergyJ || a.Time != b.Time || a.Images != b.Images {
		t.Fatalf("reuse changed results: %+v vs %+v", a, b)
	}
}

// TestNonPositiveWindowPeriodUsesDefault is a regression test: a zero or
// negative WindowPeriod used to make advance and idle step by zero forever.
// It must behave exactly like the default period, and return promptly.
func TestNonPositiveWindowPeriodUsesDefault(t *testing.T) {
	p := hw.TX2()
	g := models.AlexNet()
	run := func(period time.Duration) (Result, Result, int) {
		ctl := &windowCountCtl{fixedCtl: fixedCtl{level: 5}}
		e := NewExecutor(p, ctl)
		e.WindowPeriod = period
		task := e.RunTask(g, 3)
		flow := e.RunTaskFlow([]Task{{Graph: g, Images: 2}, {Graph: g, Images: 1}}, 120*time.Millisecond)
		return task, flow, len(ctl.stats)
	}
	wantTask, wantFlow, wantWindows := run(defaultWindowPeriod)
	for _, period := range []time.Duration{0, -time.Millisecond} {
		done := make(chan struct{})
		var task, flow Result
		var windows int
		go func() {
			defer close(done)
			task, flow, windows = run(period)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("WindowPeriod=%v: run did not return", period)
		}
		if task.EnergyJ != wantTask.EnergyJ || task.Time != wantTask.Time ||
			flow.EnergyJ != wantFlow.EnergyJ || flow.Time != wantFlow.Time || windows != wantWindows {
			t.Fatalf("WindowPeriod=%v differs from the default: task %+v flow %+v windows %d, want %+v %+v %d",
				period, task, flow, windows, wantTask, wantFlow, wantWindows)
		}
	}
}
