package rl

// PerSampleAC exposes perSampleAC to the external differential tests.
type PerSampleAC = perSampleAC

// ReferenceUpdate runs the per-sample reference update.
func (p *PPO) ReferenceUpdate(ac PerSampleAC, buf *Buffer) (UpdateStats, error) {
	return p.referenceUpdate(ac, buf)
}

// ReferenceUpdateWithRecovery runs the per-sample reference update under
// the divergence watchdog.
func (p *PPO) ReferenceUpdateWithRecovery(ac PerSampleAC, buf *Buffer, retries int) (UpdateStats, RecoveryInfo, error) {
	return p.withRecovery(ac, buf, retries, func(ac ActorCritic, b *Buffer) (UpdateStats, error) {
		return p.referenceUpdate(ac.(perSampleAC), b)
	})
}

// SetUpdateChunk sets the chunk size of Update and returns a function that
// restores the previous one.
func SetUpdateChunk(n int) (restore func()) {
	old := updateChunk
	updateChunk = n
	return func() { updateChunk = old }
}
