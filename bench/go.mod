module abc/bench

go 1.21

require abc v0.0.0

replace abc => ../
