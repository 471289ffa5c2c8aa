module flick/bench

go 1.22

require flick v0.0.0

replace flick => ../
