package engine_test

import (
	"testing"
	"time"

	"sfccover/internal/core"
	"sfccover/internal/core/coretest"
	"sfccover/internal/engine"
)

// TestEngineProviderConformance runs the shared core.Provider battery
// over both plans — the SFC strategy's routed plan and the linear
// strategy's fan-out plan: through the Provider seam an engine must be
// indistinguishable from the reference Detector.
func TestEngineProviderConformance(t *testing.T) {
	schema := coretest.Schema()
	for _, strategy := range []core.Strategy{core.StrategySFC, core.StrategyLinear} {
		t.Run(string(strategy), func(t *testing.T) {
			coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
				return engine.MustNew(engine.Config{
					Detector: core.Config{Schema: schema, Mode: core.ModeExact, Strategy: strategy},
					Shards:   4,
					Workers:  4,
				})
			})
		})
	}
}

// TestEngineConformanceMidRebalance runs the same battery against a
// routed engine whose slice boundaries are being moved the whole time: a
// background goroutine hammers Rebalance (and the engine's own trigger is
// armed at the lowest legal threshold) while every behavioral assertion
// runs. Provider semantics must be indistinguishable from the quiescent
// engine's.
func TestEngineConformanceMidRebalance(t *testing.T) {
	schema := coretest.Schema()
	coretest.RunProviderConformance(t, schema, func(t *testing.T) core.Provider {
		e := engine.MustNew(engine.Config{
			Detector:           core.Config{Schema: schema, Mode: core.ModeExact},
			Shards:             4,
			Workers:            4,
			RebalanceThreshold: 1.01,
			RebalanceInterval:  time.Millisecond,
		})
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					if _, err := e.Rebalance(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		t.Cleanup(func() {
			close(stop)
			<-done
		})
		return e
	})
}
