package campaign

// Lost is the number of records not persisted because of degradation.
func (j *Journal) Lost() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lost
}
