type t = ..

exception Mismatch

type 'a embedding = { inj : 'a -> t; prj : t -> 'a }

let embed (type a) () : a embedding =
  let module M = struct
    type t += K of a
  end in
  let prj = function M.K v -> v | _ -> raise Mismatch in
  { inj = (fun v -> M.K v); prj }
