open Svm
open Svm.Prog.Syntax

let herlihy_rajsbaum_k ~t ~m ~l =
  if t < 0 || m < 1 || l < 1 then invalid_arg "herlihy_rajsbaum_k";
  (l * ((t + 1) / m)) + min l ((t + 1) mod m)

let algorithm ~n ~t ~m ~l ~k =
  if n mod m <> 0 then invalid_arg "Set_agreement.algorithm: requires m | n";
  if l < 1 || l > m then invalid_arg "Set_agreement.algorithm: need 1 <= l <= m";
  let threshold = herlihy_rajsbaum_k ~t ~m ~l in
  if k < threshold then
    invalid_arg
      (Printf.sprintf
         "Set_agreement.algorithm: k = %d below the Herlihy-Rajsbaum \
          threshold %d"
         k threshold);
  let model = Core.Model.read_write ~n ~t in
  let int_c = Codec.int in
  let code ~pid ~input =
    let v = int_c.Codec.prj input in
    let group = pid / m in
    (* The (m, l)-set object of this group: key = [l; m; group]. *)
    let* gv = Prog.kset_propose int_c "mlset" [ l; m; group ] v in
    let* () = Prog.snap_set int_c "mem" [] gv in
    Prog.snap_scan_until int_c "mem" [] (fun view ->
        let written =
          Array.fold_left (fun c e -> if e = None then c else c + 1) 0 view
        in
        if written >= n - t then
          let best =
            Array.fold_left
              (fun acc e -> match e with None -> acc | Some w -> min acc w)
              max_int view
          in
          Some (int_c.Codec.inj best)
        else None)
  in
  Core.Algorithm.make
    ~name:(Printf.sprintf "kset-from-(%d,%d)-set(n=%d,t=%d,k=%d)" m l n t k)
    ~model code
