module Report = Ac_analysis.Report

let count ?budget ?strict ?chaos ~exec ~eps ~delta q db =
  let report = Report.analyze ~db q in
  Approxcount.Planner.count_governed ?budget ?strict ?chaos ~exec
    ~classification:(Report.classification_exn report)
    ~cost:(Option.get report.Report.cost) ~eps ~delta q db
