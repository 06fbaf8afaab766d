package timeprot

import (
	"timeprotection/internal/channel"
	"timeprotection/internal/mi"
)

// Sample is one collected (input symbol, output observation) pair.
type Sample = mi.Sample

// Session is an interactive channel measurement: the same attack a
// Measure* call runs in one shot, advanced under caller control. A
// session stepped to completion — in any increments — yields exactly
// the dataset the one-shot call returns for the same options, because
// stepping replays the identical simulation chunks. This is the
// in-process form of the daemon's /v1/sessions surface.
//
//	s, _ := timeprot.NewChannelSession(timeprot.L1D, timeprot.WithoutProtection())
//	for !s.Done() {
//		samples, _ := s.Step(10)
//		... // live probe latencies, partial MI via Estimate(s.Dataset())
//	}
//	r := timeprot.Analyze(s.Dataset(), 42)
type Session struct {
	x *channel.Interactive
}

// NewChannelSession prepares an interactive intra-core channel attack
// (the stepwise form of MeasureChannel).
func NewChannelSession(res Resource, opts ...Option) (*Session, error) {
	x, err := channel.PrepareIntraCore(newSettings(opts).spec(), res)
	if err != nil {
		return nil, err
	}
	return &Session{x: x}, nil
}

// NewKernelChannelSession prepares an interactive kernel-footprint
// channel attack (the stepwise form of MeasureKernelChannel).
func NewKernelChannelSession(opts ...Option) (*Session, error) {
	x, err := channel.PrepareKernelChannel(newSettings(opts).spec())
	if err != nil {
		return nil, err
	}
	return &Session{x: x}, nil
}

// NewInterruptChannelSession prepares an interactive interrupt-timing
// channel attack (the stepwise form of MeasureInterruptChannel).
func NewInterruptChannelSession(partitioned bool, opts ...Option) (*Session, error) {
	x, err := channel.PrepareInterruptChannel(newSettings(opts).spec(), partitioned)
	if err != nil {
		return nil, err
	}
	return &Session{x: x}, nil
}

// Step advances the attack in whole simulation chunks until at least n
// further samples are collected (minimum 1; a chunk may bring more) and
// returns just those samples. At the target it returns
// empty slices; a starved receiver surfaces the one-shot path's error.
func (s *Session) Step(n int) ([]Sample, error) {
	return s.x.StepSamples(n, nil)
}

// Done reports whether the attack reached its sample target.
func (s *Session) Done() bool { return s.x.Done() }

// Target returns the configured sample target.
func (s *Session) Target() int { return s.x.Target() }

// Collected returns how many samples the session has gathered so far —
// with Target, the caller's progress gauge. Because stepping is
// deterministic, replaying the same step sizes against a fresh session
// reproduces the identical dataset.
func (s *Session) Collected() int { return s.x.Dataset().N() }

// Dataset returns the live dataset collected so far; pass it to
// Analyze or Estimate at any point.
func (s *Session) Dataset() *Dataset { return s.x.Dataset() }
