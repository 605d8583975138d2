package protocols

// String names the style in test failures.
func (s Style) String() string {
	if s == StyleUpdate {
		return "update"
	}
	return "invalidate"
}
