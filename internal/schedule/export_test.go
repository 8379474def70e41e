package schedule

// ValidateExclusivity exposes the resource check of Validate to the
// differential tests.
func (s *Schedule) ValidateExclusivity() error { return s.validateExclusivity() }
