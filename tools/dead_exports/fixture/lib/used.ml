let used = 1
let planted_dead = 2
