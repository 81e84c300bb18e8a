type t = { oracle : string; ok : bool; detail : string }

let v oracle ok detail = { oracle; ok; detail }
let failed vs = List.filter (fun v -> not v.ok) vs
